"""Wire-protocol round-trips and JobSpec validation."""

import pytest

from repro.errors import ConfigError
from repro.service.protocol import JobSpec, decode, encode, error, ok


class TestEnvelopes:
    def test_encode_decode_round_trip(self):
        msg = {"op": "submit", "workload": "synt.cpu.1n", "seed": 3}
        assert decode(encode(msg)) == msg

    def test_encode_is_one_line(self):
        line = encode({"op": "ping"})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_decode_rejects_garbage(self):
        with pytest.raises(ConfigError):
            decode(b"not json\n")
        with pytest.raises(ConfigError):
            decode(b"[1,2,3]\n")

    def test_ok_and_error_envelopes(self):
        assert ok(x=1) == {"ok": True, "x": 1}
        err = error("backpressure", "try later", pending=5)
        assert err["ok"] is False
        assert err["error"] == "backpressure"
        assert err["pending"] == 5


class TestJobSpec:
    def test_from_payload_defaults(self):
        spec = JobSpec.from_payload({"workload": "synt.cpu.1n"})
        assert spec.seed == 1
        assert spec.scale == 1.0
        assert spec.cluster == "default"
        assert spec.submit_s is None

    def test_from_payload_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown job-spec"):
            JobSpec.from_payload({"workload": "x", "bogus": 1})

    def test_from_payload_requires_workload(self):
        with pytest.raises(ConfigError):
            JobSpec.from_payload({})

    def test_validation(self):
        with pytest.raises(ConfigError):
            JobSpec(workload="x", scale=0.0)
        with pytest.raises(ConfigError):
            JobSpec(workload="x", est_margin=0.5)
        with pytest.raises(ConfigError):
            JobSpec(workload="x", submit_s=-1.0)

    def test_none_values_accepted_in_payload(self):
        spec = JobSpec.from_payload(
            {"workload": "x", "policy": None, "submit_s": None, "tag": None}
        )
        assert spec.policy is None and spec.tag is None

    @pytest.mark.parametrize("field", ["workload", "seed", "scale", "cluster", "est_margin"])
    def test_null_is_absent_only_where_the_default_is_none(self, field):
        with pytest.raises(ConfigError, match="cannot be null"):
            JobSpec.from_payload({"workload": "x", field: None})

    @pytest.mark.parametrize(
        "field, value",
        [("seed", "abc"), ("seed", float("inf")), ("tag", "x"), ("scale", "big")],
    )
    def test_malformed_values_are_config_errors(self, field, value):
        with pytest.raises(ConfigError, match=field):
            JobSpec.from_payload({"workload": "x", field: value})

    @pytest.mark.parametrize("field", ["submit_s", "scale", "est_margin"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            JobSpec.from_payload({"workload": "x", field: value})

    def test_construction_coerces_like_the_wire(self):
        spec = JobSpec(workload="x", seed="3", scale=1, tag="7")
        assert (spec.seed, spec.tag) == (3, 7)
        assert type(spec.scale) is float


class TestIntArg:
    def test_pops_and_defaults(self):
        from repro.service.protocol import int_arg

        request = {"count": "4"}
        assert int_arg(request, "count", 1) == 4
        assert request == {}
        assert int_arg(request, "n", 100) == 100

    @pytest.mark.parametrize("value", ["x", None, [1]])
    def test_non_integer_is_a_config_error(self, value):
        from repro.service.protocol import int_arg

        with pytest.raises(ConfigError, match="count must be an integer"):
            int_arg({"count": value}, "count", 1)
