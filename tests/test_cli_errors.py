"""CLI error paths follow the structured contract (never a traceback).

Every operational failure — missing program file, unreadable or
corrupt hosts JSON, unusable explicit ``--storage-dir``, tampered
rehydration artifact — must exit non-zero with exactly one structured
line on stderr: ``error: {"error": "<code>", "detail": "..."}`` where
the code comes from the gateway's closed set.  Frontend/splitter
rejections keep their historical ``REJECTED: ...`` line.
"""

import json
import os

import pytest

from repro.cli import main
from repro.runtime.gateway import ERROR_CODES

PROGRAM = os.path.join(
    os.path.dirname(__file__), "..", "examples", "programs", "payroll.jif"
)
HOSTS = os.path.join(
    os.path.dirname(__file__), "..", "examples", "programs", "hosts_ab.json"
)


def structured_error(capsys):
    """Parse the single structured stderr line; assert the contract."""
    err = capsys.readouterr().err.strip()
    lines = [line for line in err.splitlines() if line]
    assert len(lines) == 1, f"expected one error line, got: {err!r}"
    assert lines[0].startswith("error: "), err
    assert "Traceback" not in err
    payload = json.loads(lines[0][len("error: "):])
    assert set(payload) == {"error", "detail"}
    assert payload["error"] in ERROR_CODES
    return payload


class TestMissingInputs:
    @pytest.mark.parametrize("command", ["check", "split", "run"])
    def test_missing_program_file(self, command, capsys):
        argv = [command, "/nonexistent/program.jif"]
        if command != "check":
            argv += ["--hosts", HOSTS]
        assert main(argv) == 2
        payload = structured_error(capsys)
        assert payload["error"] == "bad-request"
        assert "/nonexistent/program.jif" in payload["detail"]

    def test_missing_hosts_file(self, capsys):
        assert main(["run", PROGRAM, "--hosts", "/nonexistent/h.json"]) == 2
        payload = structured_error(capsys)
        assert payload["error"] == "bad-request"
        assert "hosts file" in payload["detail"]


class TestCorruptHostsFile:
    def test_invalid_json(self, tmp_path, capsys):
        hosts = tmp_path / "hosts.json"
        hosts.write_text("{not json")
        assert main(["run", PROGRAM, "--hosts", str(hosts)]) == 2
        payload = structured_error(capsys)
        assert payload["error"] == "bad-request"
        assert "not valid JSON" in payload["detail"]

    def test_well_formed_json_missing_keys(self, tmp_path, capsys):
        hosts = tmp_path / "hosts.json"
        hosts.write_text(json.dumps({"hosts": [{"name": "A"}]}))
        assert main(["run", PROGRAM, "--hosts", str(hosts)]) == 2
        payload = structured_error(capsys)
        assert payload["error"] == "bad-request"
        assert "malformed" in payload["detail"]


class TestStorageDir:
    def test_explicit_unusable_storage_dir_fails_fast(
        self, tmp_path, capsys
    ):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("a file where a directory must go")
        rc = main([
            "run", PROGRAM, "--hosts", HOSTS,
            "--storage", "sqlite", "--storage-dir", str(not_a_dir),
        ])
        assert rc == 1
        payload = structured_error(capsys)
        assert payload["error"] == "storage-degraded"
        assert str(not_a_dir) in payload["detail"]

    def test_default_tempdir_storage_still_runs(self, capsys):
        assert main([
            "run", PROGRAM, "--hosts", HOSTS, "--storage", "sqlite",
        ]) == 0
        out = capsys.readouterr().out
        assert "durable storage: sqlite" in out
        assert "Payroll.adjusted = 123600" in out


class TestRehydrate:
    def _storage_dir(self, tmp_path):
        """A completed run's durable directory, ready to rehydrate."""
        directory = tmp_path / "storage"
        assert main([
            "run", PROGRAM, "--hosts", HOSTS,
            "--storage", "sqlite", "--storage-dir", str(directory),
        ]) == 0
        return directory

    def test_corrupt_artifact_fails_closed(self, tmp_path, capsys):
        directory = self._storage_dir(tmp_path)
        capsys.readouterr()
        sidecar = directory / "sealed.json"
        sealed = json.loads(sidecar.read_text())
        # Flip the sealed digest: any tamper must quarantine the
        # artifact, not resume from it.
        sealed["digest"] = "0" * len(sealed.get("digest", "0" * 64))
        sidecar.write_text(json.dumps(sealed))
        rc = main([
            "rehydrate", PROGRAM, "--hosts", HOSTS,
            "--storage-dir", str(directory),
        ])
        assert rc == 1
        payload = structured_error(capsys)
        assert payload["error"] in ("quarantine", "storage-degraded")

    def test_missing_storage_dir_is_structured(self, tmp_path, capsys):
        rc = main([
            "rehydrate", PROGRAM, "--hosts", HOSTS,
            "--storage-dir", str(tmp_path / "never-existed"),
        ])
        assert rc == 1
        payload = structured_error(capsys)
        assert payload["error"] in ("quarantine", "storage-degraded")


class TestMissingArguments:
    def test_faultsweep_program_without_hosts(self, capsys):
        assert main(["faultsweep", PROGRAM]) == 2
        payload = structured_error(capsys)
        assert payload["error"] == "bad-request"
        assert "--hosts" in payload["detail"]

    def test_rehydrate_without_arguments(self, capsys):
        assert main(["rehydrate"]) == 2
        payload = structured_error(capsys)
        assert payload["error"] == "bad-request"
        assert "--storage-dir" in payload["detail"]

    @pytest.mark.parametrize(
        "extra", [["--crash-points"], ["--storage", "sqlite"]],
        ids=["crash-points", "storage-sqlite"],
    )
    def test_storage_faults_conflicts_are_refused(self, extra, capsys):
        argv = ["faultsweep", "--storage-faults", "--schedules", "1"]
        assert main(argv + extra) == 2
        payload = structured_error(capsys)
        assert payload["error"] == "bad-request"
        assert "--storage-faults" in payload["detail"]

    @pytest.mark.parametrize(
        "argv,flags",
        [
            (["--crash-points", "--schedules", "1", "--seed", "7"],
             ["--schedules", "--seed"]),
            (["--crash-points", "--schedules", "50"], ["--schedules"]),
            (["--crash-points", "--seed", "0"], ["--seed"]),
            (["--per-point", "3"], ["--per-point"]),
            (["--crash-mode", "volatile"], ["--crash-mode"]),
            (["--storage-faults", "--per-point", "1"], ["--per-point"]),
        ],
        ids=[
            "schedules-and-seed-with-crash-points",
            "default-schedules-with-crash-points",
            "default-seed-with-crash-points",
            "per-point-without-crash-points",
            "crash-mode-without-crash-points",
            "per-point-with-storage-faults",
        ],
    )
    def test_options_of_another_sweep_are_refused(self, argv, flags, capsys):
        """An option that does not apply to the chosen sweep is refused,
        even at its default value, instead of being ignored."""
        assert main(["faultsweep", *argv]) == 2
        payload = structured_error(capsys)
        assert payload["error"] == "bad-request"
        assert all(flag in payload["detail"] for flag in flags)


class TestRejectionsUnchanged:
    def test_frontend_rejection_keeps_rejected_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jif"
        bad.write_text("class C { int{Alice:} x; int{Bob:} y; "
                       "void m{}() { y = x; } }")
        assert main(["check", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "REJECTED" in err
        assert "Traceback" not in err
