"""RunContext: activation, nesting and identity minting."""

from repro.obs import RunContext, current_run, new_run_id, run_context


class TestRunContext:
    def test_inactive_by_default(self):
        assert current_run() is None

    def test_activation_and_nesting(self):
        with run_context(RunContext("outer")) as outer:
            assert current_run() is outer
            with run_context(RunContext("inner", request_id="r1")) as inner:
                assert current_run() is inner
                assert current_run().request_id == "r1"
            assert current_run() is outer
        assert current_run() is None

    def test_default_context_mints_an_id(self):
        with run_context() as context:
            assert len(context.run_id) == 12
            assert context.request_id is None

    def test_new_run_ids_are_unique(self):
        assert new_run_id() != new_run_id()

    def test_to_dict(self):
        context = RunContext("abc", request_id="req")
        assert context.to_dict() == {"run_id": "abc", "request_id": "req"}
