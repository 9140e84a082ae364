"""CLI surface, formats, exit codes and golden checks; library cache round trips."""

from __future__ import annotations

import argparse
import json
import os
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from qreflect import _golden
from qreflect import cache as cachemod
from qreflect import qfamily, tensorops, threedk, threedr
from qreflect.cli import _build_parser, golden_report, main
from qreflect.exactq import LaurentQ
from qreflect.multipoly import MultiPolyQ
from qreflect.report import VerificationReport

BLOCKS = {
    "r": (threedr.r_block_states, threedr.r_element),
    "k": (threedk.k_block_states, threedk.k_element),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCommands:
    def test_q_compute_text(self, capsys):
        code, out = run(capsys, "q", "compute", "1", "0")
        assert code == 0
        assert out.strip() == "w*x*y^2*z - w - x*y + 1"

    def test_q_compute_json_roundtrip(self, capsys):
        code, out = run(capsys, "q", "compute", "1", "1", "--format", "json")
        assert code == 0
        assert MultiPolyQ.from_json(json.loads(out)) == qfamily.q_polynomial(1, 1)

    def test_k_element(self, capsys):
        code, out = run(capsys, "k", "element", "3", "1", "0", "2", "1", "3", "0", "0",
                        "--route", "both")
        assert code == 0
        assert out.strip() == "-q^6 - q^8 - q^10"

    def test_r_element_routes(self, capsys):
        code, out = run(capsys, "r", "element", "0", "1", "0", "1", "0", "1",
                        "--route", "all")
        assert code == 0
        assert out.strip() == "1 - q^2"

    def test_verify_tetrahedron_summary(self, capsys):
        code, out = run(capsys, "verify", "tetrahedron", "--max-occ", "1")
        assert code == 0
        assert "64/64 pass" in out

    def test_verify_intertwiner_single(self, capsys):
        code, out = run(capsys, "verify", "intertwiner", "--relation", "24",
                        "--max-occ", "1")
        assert code == 0
        assert "16/16 pass" in out

    def test_verify_golden(self, capsys):
        code, out = run(capsys, "verify", "golden")
        assert code == 0
        assert "pass" in out

    def test_verify_reflection_max_occ_zero(self, capsys):
        # Only the zero state has every occupation <= 0.
        code, out = run(capsys, "verify", "reflection", "--max-occ", "0")
        assert code == 0
        assert out == "reflection: 1/1 pass\n"

    def test_verify_reflection_counts_each_state_once(self, capsys):
        # The default bound is 1: each of the 2^9 states with occupations <= 1, once.
        code, out = run(capsys, "verify", "reflection")
        assert code == 0
        assert out == "reflection: 512/512 pass\n"

    def test_export_block_csv(self, capsys):
        code, out = run(capsys, "r", "block", "1", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "out0,out1,out2,in0,in1,in2,value"
        assert len(lines) == 5  # 2x2 block plus header

    def test_block_json_values_reimport(self, capsys):
        code, out = run(capsys, "r", "block", "1", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        for entry in data["entries"]:
            value = LaurentQ.from_json(entry["value"])
            assert value == threedr.r_element(*entry["out"], *entry["in"])

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("op", ["r", "k"])
    def test_block_every_format(self, capsys, op, fmt):
        block_states, element = BLOCKS[op]
        states = block_states(2, 2)
        cells = {(out, inp): element(*out, *inp) for out in states for inp in states}
        code, out = run(capsys, op, "block", "2", "2", "--format", fmt)
        assert code == 0
        if fmt == "json":
            data = json.loads(out)
            assert data["states"] == [list(state) for state in states]
            assert {
                (tuple(e["out"]), tuple(e["in"])): LaurentQ.from_json(e["value"])
                for e in data["entries"]
            } == cells
        elif fmt == "csv":
            header, *rows = out.splitlines()
            width = len(states[0])
            assert header.split(",") == (
                [f"out{i}" for i in range(width)]
                + [f"in{i}" for i in range(width)]
                + ["value"]
            )
            fields = [row.split(",") for row in rows]
            assert [
                (tuple(map(int, f[:width])), tuple(map(int, f[width:-1])), f[-1])
                for f in fields
            ] == [(out, inp, str(value)) for (out, inp), value in cells.items()]
        else:
            assert out.splitlines() == [
                f"{out} <- {inp}: {value}"
                for (out, inp), value in cells.items()
                if not value.is_zero
            ]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("op, m, n", [("r", "-1", "2"), ("k", "0", "-3")])
    def test_negative_block_is_a_domain_error(self, capsys, op, m, n, fmt):
        code = main([op, "block", m, n, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_failure_exit_code(self, capsys):
        bad = VerificationReport("forced", passed=False, checked=1)
        from qreflect.cli import _emit_report

        assert _emit_report(bad, "text") == 1

    def test_hypergeometric_mismatch_is_a_verified_failure(self, capsys, monkeypatch):
        # Negate (q^{-2b}; q^2)_1 in the hypergeometric sum only: P_1 disagrees.
        pochhammer = threedr.q_pochhammer
        monkeypatch.setattr(
            threedr,
            "q_pochhammer",
            lambda a, base, n: -pochhammer(a, base, n) if n == 1 else pochhammer(a, base, n),
        )
        code = main(["r", "verify", "--max-b", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert "FAIL" in captured.out
        assert "hypergeometric route mismatch at b=1" in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            "verify tetrahedron --max-occ -1",
            "verify intertwiner --max-occ -1",
            "verify reflection --max-occ -1",
            "q verify --max-bc -1",
            "k verify --max-bc -1",
            "r verify --max-b -1",
        ],
    )
    def test_negative_bound_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "must be >= 0" in captured.err

    @pytest.mark.parametrize(
        "argv",
        ["verify reflection --sample 4", "verify reflection --seed 3", "q verify props"],
    )
    def test_removed_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: qreflect")

    def test_verbs_and_global_options(self):
        parser = _build_parser()
        (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(verbs.choices) == ["k", "q", "r", "verify"]
        assert [s for a in parser._actions for s in a.option_strings] == ["-h", "--help"]


class TestKVerify:
    def test_passes_in_text_and_json(self, capsys):
        # The E relations for b, c <= 1, the K blocks m <= 3, n <= 5 and
        # the 290 keys of the bridge recursion.
        checked = 14 * 4 + tensorops.verify_blocks(tensorops.K_OPERATOR, 3, 5).checked + 290
        code, out = run(capsys, "k", "verify", "--max-bc", "1")
        assert code == 0
        assert out == f"K suite, b, c <= 1: {checked} checked, pass\n"
        code, out = run(capsys, "k", "verify", "--max-bc", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"name": "K suite, b, c <= 1", "passed": True, "checked": checked}

    def test_zeroed_element_is_a_verified_failure(self, capsys, monkeypatch):
        key = (1, 0, 0, 1, 0, 1, 0, 0)
        monkeypatch.setattr(tensorops, "k_element", tensorops.zeroed_key(threedk.k_element, key))
        code, out = run(capsys, "k", "verify", "--max-bc", "0")
        assert code == 1
        (line,) = out.splitlines()
        assert line.startswith("K suite, b, c <= 0: ")
        assert "FAIL (K transpose at (0, 1, 0, 0, 1, 0, 0, 1): " in line

    def test_old_verb_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["k", "verify-e"])
        assert exc.value.code == 2
        assert "invalid choice: 'verify-e'" in capsys.readouterr().err


class TestClosedStdout:
    SRC = Path(__file__).resolve().parents[1] / "src"

    def spawn(self, argv, **kwargs):
        path = os.pathsep.join([str(self.SRC), os.environ.get("PYTHONPATH", "")])
        cmd = [sys.executable, "-m", "qreflect.cli", *argv]
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.Popen(cmd, env=env, stderr=subprocess.PIPE, **kwargs)

    @pytest.mark.parametrize(
        "command",
        ["verify tetrahedron --max-occ 0", "q compute 1 0", "verify golden --format json"],
    )
    def test_exit_code_is_the_verdict(self, command):
        # A reader that goes away at once (a pipe into `head -0`) changes
        # neither the exit code nor stderr.
        argv = command.split()
        with self.spawn(argv, stdout=subprocess.DEVNULL) as proc:
            _, err = proc.communicate(timeout=120)
        want = proc.returncode
        assert err == b""
        with self.spawn(argv, stdout=subprocess.PIPE) as proc:
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert err.decode() == ""
        assert proc.returncode == want


README = Path(__file__).resolve().parents[1] / "README.md"

# The README lines whose comment is the exact output.
README_OUTPUTS = {
    "q compute 1 0": "w*x*y^2*z - w - x*y + 1",
    "r element 0 1 0 1 0 1 --route all": "1 - q^2",
    "verify tetrahedron --max-occ 1": "tetrahedron: 64/64 pass",
    "verify reflection --max-occ 1": "reflection: 512/512 pass",
}


def readme_commands() -> dict[str, str]:
    """The comment of each qreflect line in README's command-line block, by command."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = {}
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "qreflect", line
        commands[shlex.join(argv)] = comment.strip()
    return commands


class TestReadme:
    def test_every_command_parses(self):
        commands = readme_commands()
        assert set(README_OUTPUTS) <= set(commands)
        for command in commands:
            _build_parser().parse_args(shlex.split(command))

    @pytest.mark.parametrize("command", sorted(README_OUTPUTS))
    def test_commented_output_is_printed(self, capsys, command):
        want = README_OUTPUTS[command]
        assert want in readme_commands()[command]
        code, out = run(capsys, *shlex.split(command))
        assert code == 0
        assert out == want + "\n"


@pytest.fixture
def clean_caches():
    """Drop every memo table afterwards, so corrupted entries cannot leak."""
    yield
    for module in (qfamily, threedr, threedk, tensorops):
        module.clear_caches()


@pytest.fixture
def flipped_q10(clean_caches):
    """Cleared memo tables, then Q_(1,0) installed with its constant 1 made -5."""
    tensorops.clear_caches()
    flipped = qfamily.q_polynomial(1, 0) - 6
    assert str(flipped) == "w*x*y^2*z - w - x*y - 5"
    qfamily.cache_install({(1, 0): flipped})


class TestInternalErrors:
    def test_corrupted_cache_exits_3(self, capsys, flipped_q10):
        code = main(["verify", "golden"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ExactDivisionError")


class TestCache:
    def test_roundtrip_and_equivalence(self, tmp_path):
        path = tmp_path / "cache.json"
        qfamily.q_polynomial(2, 1)
        threedr.p_polynomial(3)
        with_cache = qfamily.q_polynomial(2, 1)
        count = cachemod.export_cache(path)
        assert count > 0

        qfamily.clear_caches()
        threedr.clear_caches()
        assert cachemod.import_cache(path) == count
        # Cache on (imported) and cache off (cleared, recomputed) agree.
        assert qfamily.q_polynomial(2, 1) == with_cache
        qfamily.clear_caches()
        assert qfamily.q_polynomial(2, 1) == with_cache

    def test_version_mismatch_rebuilds(self, tmp_path):
        path = tmp_path / "cache.json"
        qfamily.q_polynomial(1, 0)
        cachemod.export_cache(path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 999
        path.write_text(json.dumps(payload))
        assert cachemod.import_cache(path) == 0

    def test_missing_file(self, tmp_path):
        assert cachemod.import_cache(tmp_path / "absent.json") == 0

    def test_families_round_trip_equals_computed(self, tmp_path, clean_caches):
        path = tmp_path / "cache.json"
        tensorops.clear_caches()
        qfamily.q_polynomial(3, 3)
        threedr.p_polynomial(12)
        q_entries, p_entries = qfamily.cache_snapshot(), threedr.p_cache_snapshot()
        assert cachemod.export_cache(path) == len(q_entries) + len(p_entries)

        qfamily.clear_caches()
        threedr.clear_caches()
        assert cachemod.import_cache(path) == len(q_entries) + len(p_entries)
        assert qfamily.cache_snapshot() == q_entries
        assert threedr.p_cache_snapshot() == p_entries

    def test_imported_file_cannot_change_an_answer(self, tmp_path, flipped_q10):
        # The file lists keys only, so a corrupted entry in the run that
        # wrote it is rebuilt correctly on import.
        path = tmp_path / "cache.json"
        cachemod.export_cache(path)
        qfamily.clear_caches()
        threedr.clear_caches()
        assert cachemod.import_cache(path) > 0
        assert str(qfamily.q_polynomial(1, 0)) == "w*x*y^2*z - w - x*y + 1"
        assert golden_report().passed

    def test_import_builds_the_columns(self, tmp_path, clean_caches):
        path = tmp_path / "cache.json"
        qfamily.q_polynomial(1, 1)
        threedr.p_polynomial(2)
        cachemod.export_cache(path)
        qfamily.clear_caches()
        threedr.clear_caches()
        cachemod.import_cache(path)
        tables = [qfamily.cache_snapshot(), threedr.p_cache_snapshot()]
        assert all(poly._column is not None for table in tables for poly in table.values())

    @pytest.mark.parametrize(
        "text",
        [
            '{"schema_version": 3, "q": ',
            "[1]",
            '{"schema_version": 3, "p": [0]}',
            '{"schema_version": 3, "q": [[0, 0]]}',
            '{"schema_version": 3, "q": [[1, -1]], "p": [0]}',
            '{"schema_version": 3, "q": [[1, 0]], "p": [1.0]}',
            '{"schema_version": 3, "q": [[true, 0]], "p": [0]}',
            '{"schema_version": 3, "q": [[1, 0]], "p": ["1"]}',
            '{"schema_version": 3, "q": [[1, 0, 0]], "p": [0]}',
        ],
        ids=[
            "bad-json",
            "not-an-object",
            "missing-q",
            "missing-p",
            "negative-key",
            "float-key",
            "bool-key",
            "bad-key",
            "q-key-not-a-pair",
        ],
    )
    def test_malformed_file_is_a_warned_miss(self, tmp_path, capsys, text, clean_caches):
        path = tmp_path / "malformed.json"
        path.write_text(text)
        qfamily.clear_caches()
        threedr.clear_caches()
        assert cachemod.import_cache(path) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: ")
        assert qfamily.cache_snapshot() == {}
        assert threedr.p_cache_snapshot() == {}

    def test_schema_2_file_is_a_silent_miss(self, tmp_path, capsys, clean_caches):
        path = tmp_path / "schema2.json"
        path.write_text(
            '{"schema_version": 2, "q": {"1,0": {"vars": ["x", "y", "z", "w"], "terms": '
            '[[0, 0, 0, 0, 0, 2, "1"]]}}, "p": {}}'
        )
        qfamily.clear_caches()
        assert cachemod.import_cache(path) == 0
        assert capsys.readouterr().err == ""
        assert qfamily.cache_snapshot() == {}

    def test_failed_export_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        qfamily.q_polynomial(1, 0)
        cachemod.export_cache(path)
        before = path.read_bytes()

        def unserialisable(payload):
            raise TypeError("payload is not serialisable")

        monkeypatch.setattr(cachemod.json, "dumps", unserialisable)
        with pytest.raises(TypeError):
            cachemod.export_cache(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_export_keeps_file_mode(self, tmp_path):
        qfamily.q_polynomial(1, 0)
        fresh = tmp_path / "fresh.json"
        old_umask = os.umask(0o022)
        try:
            cachemod.export_cache(fresh)
        finally:
            os.umask(old_umask)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644

        existing = tmp_path / "existing.json"
        existing.write_text("{}")
        existing.chmod(0o664)
        cachemod.export_cache(existing)
        assert stat.S_IMODE(existing.stat().st_mode) == 0o664
        assert cachemod.import_cache(existing) > 0


class TestCliIgnoresCaches:
    def test_cache_environment_is_not_read(self, tmp_path, capsys, monkeypatch, flipped_q10):
        path = tmp_path / "flipped.json"
        cachemod.export_cache(path)
        before = path.read_bytes()
        qfamily.clear_caches()
        monkeypatch.setenv("QREFLECT_CACHE", str(path))
        code, out = run(capsys, "q", "compute", "1", "0")
        assert code == 0
        assert out.strip() == "w*x*y^2*z - w - x*y + 1"
        assert path.read_bytes() == before

    @pytest.mark.parametrize("argv", ["--cache {} q compute 1 0", "cache export {}"])
    def test_cache_flag_and_verb_are_usage_errors(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.format(tmp_path / "cache.json").split())
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []


class TestGoldenReport:
    def test_full_set(self):
        rep = golden_report()
        assert rep.passed, rep.summary()
        assert rep.checked >= 20

    def test_negative_control(self, capsys, monkeypatch):
        inp = sorted(_golden.GOLDEN_K_TEXT)[2]
        monkeypatch.setitem(_golden.GOLDEN_K_TEXT, inp, "q^99")
        rep = golden_report()
        assert not rep.passed
        assert rep.first_failure.location == f"K^{_golden.GOLDEN_K_OUT}_{inp}"
        assert rep.first_failure.rhs == "q^99"
        code, _ = run(capsys, "verify", "golden")
        assert code == 1
