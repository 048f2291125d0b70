"""Run identity: the machine fingerprint and git SHA benchmarks carry."""

from repro.obs.telemetry.ledger import git_sha, machine_fingerprint


def test_fingerprint_and_sha_shapes():
    fingerprint = machine_fingerprint()
    assert set(fingerprint) == {
        "platform",
        "machine",
        "python",
        "implementation",
        "cpus",
    }
    sha = git_sha()
    assert sha is None or isinstance(sha, str)
