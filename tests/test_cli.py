"""Command-line surface: outputs, exit codes, and the result cache."""

import hashlib
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from supercoinv import checks, cli, harmonics, qseries
from supercoinv.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    ResultCache,
    main,
)
from supercoinv.groups import GroupSpec
from supercoinv.harmonics import DimTable


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SUPERCOINV_CACHE", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHilbert:
    def test_z_polynomial_text(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "hilbert", "--m", "1", "--p", "1", "--n", "3",
            "--q-at", "1", "--format", "text",
        )
        assert code == EXIT_OK
        assert out.strip() == "z^2 + 6*z + 6"

    def test_full_bivariate_output(self, capsys, cache_dir):
        code, out, _ = run(capsys, "hilbert", "--m", "1", "--p", "1", "--n", "2")
        assert code == EXIT_OK
        assert out.strip() == "q + z + 1"

    def test_both_specializations(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "hilbert", "--m", "1", "--p", "1", "--n", "3",
            "--q-at", "1", "--z-at", "1",
        )
        assert code == EXIT_OK
        assert out.strip() == "13"

    def test_z_at_minus_one_collapses(self, capsys, cache_dir):
        # Hilb(q, -q) = 1 means z -> -1 after q -> 1 gives 1
        code, out, _ = run(
            capsys, "hilbert", "--m", "2", "--p", "2", "--n", "2",
            "--q-at", "1", "--z-at", "-1",
        )
        assert code == EXIT_OK
        assert out.strip() == "1"

    def test_json_schema(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "hilbert", "--m", "1", "--p", "1", "--n", "2",
            "--format", "json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["group"] == {"m": 1, "p": 1, "n": 2}
        assert data["version"] == 1
        assert sorted(map(tuple, data["dims"])) == [(0, 0, 1), (0, 1, 1), (1, 0, 1)]

    def test_latex_contains_row(self, capsys, cache_dir):
        code, out, _ = run(
            capsys, "hilbert", "--m", "1", "--p", "1", "--n", "3",
            "--format", "latex",
        )
        assert code == EXIT_OK
        assert "$S_3$ & $z^2 + 6z + 6$ & (same)" in out

    def test_warm_cache_builds_no_group(self, capsys, cache_dir, monkeypatch):
        base = ["hilbert", "--m", "2", "--p", "2", "--n", "3"]
        variants = [[], ["--format", "json"], ["--format", "latex"], ["--closure"]]
        cold = [run(capsys, *base, *extra) for extra in variants]
        assert all(code == EXIT_OK for code, _, _ in cold)

        def no_group(*args):
            raise AssertionError("hilbert built the group on a cache hit")

        monkeypatch.setattr(cli, "build_group", no_group)
        assert [run(capsys, *base, *extra) for extra in variants] == cold

    def test_infeasible_exit_code(self, capsys, cache_dir):
        code, out, err = run(
            capsys, "--cell-budget", "10",
            "hilbert", "--m", "1", "--p", "1", "--n", "3", "--q-at", "1",
        )
        assert code == EXIT_INFEASIBLE
        assert "refused" in err
        assert not out


class TestArtin:
    def test_count(self, capsys, cache_dir):
        code, out, _ = run(capsys, "artin", "--m", "4", "--p", "2", "--n", "3",
                           "--count")
        assert code == EXIT_OK
        assert out.strip() == "192"

    def test_hilbert(self, capsys, cache_dir):
        code, out, _ = run(capsys, "artin", "--m", "2", "--p", "1", "--n", "2",
                           "--hilbert")
        assert code == EXIT_OK
        assert out.strip() == "q^4 + 2*q^3 + 2*q^2 + 2*q + 1"

    def test_enumerate_lex_sorted(self, capsys, cache_dir):
        code, out, _ = run(capsys, "artin", "--m", "3", "--p", "3", "--n", "2",
                           "--enumerate")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines == sorted(lines)
        assert len(lines) == 6
        assert lines[0] == "0 0"


class TestGroebner:
    def test_verify_paper_basis(self, capsys, cache_dir):
        code, out, _ = run(capsys, "groebner", "--m", "2", "--p", "2", "--n", "2",
                           "--verify-paper-basis")
        assert code == EXIT_OK
        assert "match" in out

    def test_verify_paper_basis_reads_the_cached_basis(self, capsys, cache_dir):
        # A checksummed entry that is not the closed-form family is reported.
        ResultCache(cache_dir).store(
            "groebner", GroupSpec.create(1, 1, 2),
            {"n": 2, "generators": ["x2^2", "x1 + x2^2"]},
        )
        code, out, _ = run(capsys, "groebner", "--m", "1", "--p", "1", "--n", "2",
                           "--verify-paper-basis")
        assert code == EXIT_CHECK_FAILED
        assert out.startswith("mismatch:")

    def test_show_basis(self, capsys, cache_dir):
        code, out, _ = run(capsys, "groebner", "--m", "1", "--p", "1", "--n", "2",
                           "--show-basis")
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["x2^2", "x1 + x2"]

    def test_standard_monomials(self, capsys, cache_dir):
        code, out, _ = run(capsys, "groebner", "--m", "2", "--p", "2", "--n", "2",
                           "--standard-monomials")
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["0 0", "0 1", "0 2", "1 0"]

    def test_pinned_outputs_on_the_grid(self, capsys):
        # sha256 of stdout and the exit code of every mode on the 32 groups
        # of verify.GRID: a change of the engine's polynomial representation
        # must not move a byte of any of them
        path = Path(__file__).parent / "data" / "groebner_cli.jsonl"
        pinned = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(pinned) == 3 * 32
        for case in pinned:
            code, out, _ = run(capsys, "--no-cache", *case["argv"])
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
                case["exit"], case["sha256"]), case["argv"]


class TestGroupInfo:
    def test_json(self, capsys, cache_dir):
        code, out, _ = run(capsys, "group-info", "--m", "2", "--p", "1", "--n", "2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["order"] == 8
        assert data["coexponents"] == [1, 3]

    def test_text(self, capsys, cache_dir):
        code, out, _ = run(capsys, "group-info", "--m", "1", "--p", "1", "--n", "3",
                           "--format", "text")
        assert code == EXIT_OK
        assert "order: 6" in out


class TestHarmonicsCommand:
    def test_basis_lines(self, capsys, cache_dir):
        code, out, _ = run(capsys, "harmonics", "--m", "2", "--p", "2", "--n", "2",
                           "--bidegree", "1", "1")
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["x1*t1 - x2*t2", "x1*t2 - x2*t1"]

    @pytest.mark.parametrize("cell", [("-1", "0"), ("0", "-1"), ("2", "5")])
    def test_empty_bidegree_prints_nothing(self, capsys, cache_dir, cell):
        code, out, err = run(capsys, "harmonics", "--m", "2", "--n", "2", "--bidegree", *cell)
        assert (code, out, err) == (EXIT_OK, "", "")

    def test_pinned_bases_at_desk_scale(self, capsys):
        # the stdout of every nonzero cell of verify.DESK_SCALE_GROUPS, byte
        # for byte: a change of the basis format must not move a printed
        # coefficient
        path = Path(__file__).parent / "data" / "harmonics_cli.jsonl"
        pinned = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(pinned) == 128
        for case in pinned:
            code, out, _ = run(capsys, "--no-cache", *case["argv"])
            assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


class TestThreads:
    def test_worker_pool_produces_same_table(self, capsys, cache_dir):
        args = ["hilbert", "--m", "1", "--p", "1", "--n", "3", "--format", "json"]
        code1 = main(["--no-cache"] + args)
        out1 = capsys.readouterr().out
        code2 = main(["--no-cache", "--threads", "2"] + args)
        out2 = capsys.readouterr().out
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_thread_count_below_one_is_a_usage_error(self, capsys, cache_dir, threads):
        code, out, err = run(capsys, "--no-cache", "--threads", threads,
                             "hilbert", "--m", "1", "--n", "3")
        assert (code, out) == (EXIT_USAGE, "")
        assert "--threads" in err

    def test_refusal_in_a_worker_exits_infeasible(self, capsys, cache_dir):
        code = main(["--no-cache", "--threads", "2", "--cell-budget", "100000",
                     "hilbert", "--m", "1", "--n", "4"])
        assert code == EXIT_INFEASIBLE


class TestVerifyCommand:
    def test_pass_exit(self, capsys, cache_dir):
        code, out, _ = run(capsys, "verify", "zabrocki", "--n", "2")
        assert code == EXIT_OK
        assert "consistent" in out

    def test_json_stream(self, capsys, cache_dir):
        code, out, _ = run(capsys, "verify", "qseries", "--n", "3",
                           "--format", "json")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            assert rec["verdict"] == "pass"


class TestUsageErrors:
    def test_unknown_command(self, capsys, cache_dir):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required(self, capsys, cache_dir):
        assert main(["hilbert", "--m", "1"]) == EXIT_USAGE

    def test_bad_group(self, capsys, cache_dir):
        code, out, err = run(capsys, "group-info", "--m", "4", "--p", "3", "--n", "2")
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("budget", ["-1", "-20000000"])
    def test_negative_cell_budget_is_a_usage_error(self, capsys, cache_dir, monkeypatch,
                                                    budget):
        monkeypatch.setattr(cli, "build_group", lambda *a: pytest.fail("built a group"))
        code, out, err = run(capsys, "--no-cache", "--cell-budget", budget,
                             "hilbert", "--m", "1", "--n", "3")
        assert (code, out) == (EXIT_USAGE, "")
        assert "--cell-budget" in err

    def test_zero_cell_budget_is_a_refusal(self, capsys, cache_dir):
        code, out, err = run(capsys, "--no-cache", "--cell-budget", "0",
                             "hilbert", "--m", "1", "--n", "3")
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert "over the cell budget 0" in err

    @pytest.mark.parametrize("argv", [
        ["laplacian", "--N", "0"],
        ["laplacian", "--n", "0"],
        ["laplacian", "--degree", "-1"],
        ["laplacian", "--m", "1"],
        ["qseries", "--n", "0"],
        ["qseries", "--m", "2", "--n", "3"],
        ["qseries", "--p", "1"],
        ["zabrocki", "--n", "0"],
        ["zabrocki", "--m", "3", "--n", "3"],
        ["zabrocki", "--family", "B", "--m", "1", "--n", "3"],
        ["zabrocki", "--family", "B", "--m", "2", "--p", "2", "--n", "3"],
        ["hilb-alt", "--j", "0"],
        ["hilb-alt", "--n", "1"],
        ["hilb-alt", "--m", "2", "--p", "2", "--n", "4"],
        ["exactness", "--m", "2", "--n", "0"],
    ])
    def test_verify_option_out_of_range_is_a_usage_error(self, capsys, cache_dir,
                                                          monkeypatch, argv):
        # refused before any table is built or any case is checked
        def computed(*args, **kwargs):
            pytest.fail("computed a case")

        for module, name in [(harmonics, "sh_dim_table"), (harmonics, "harmonic_cells"),
                             (checks, "laplacian_spectrum_check"),
                             (qseries, "alternating_sum")]:
            monkeypatch.setattr(module, name, computed)
        code, out, err = run(capsys, "--no-cache", "verify", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert "error: " in err

    @pytest.mark.parametrize("argv, params", [
        (["laplacian", "--degree", "0", "--N", "2", "--n", "1"], {"N": 2, "n": 1, "degree": 0}),
        (["zabrocki", "--family", "B", "--m", "2", "--n", "2"],
         {"m": 2, "p": 1, "n": 2, "family": "B"}),
        (["zabrocki", "--m", "1", "--p", "1", "--n", "2"],
         {"m": 1, "p": 1, "n": 2, "family": "A"}),
        (["hilb-alt", "--m", "1", "--n", "2"], {"m": 1, "p": 1, "n": 2, "j": 1}),
    ])
    def test_verify_runs_the_selected_case(self, capsys, cache_dir, argv, params):
        code, out, _ = run(capsys, "--no-cache", "verify", *argv, "--format", "json")
        assert code == EXIT_OK
        assert [json.loads(line)["params"] for line in out.splitlines()] == [params]

    def test_exit_code_mapping_for_failures(self, capsys, cache_dir, monkeypatch):
        # force a failing report through the CLI path
        from supercoinv import verify as vmod

        def fake_suite(ctx, **kwargs):
            return [vmod.CheckReport("x", {}, "1", "2", "fail")]

        monkeypatch.setitem(vmod.SUITES, "qseries", fake_suite)
        code, out, _ = run(capsys, "verify", "qseries")
        assert code == EXIT_CHECK_FAILED


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = GroupSpec.create(1, 1, 2)
        table = DimTable(spec, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        calls = []

        def compute():
            calls.append(1)
            return table

        first = cache.get_dim_table("sh-dims", spec, compute)
        second = cache.get_dim_table("sh-dims", spec, compute)
        assert first.entries == second.entries == table.entries
        assert len(calls) == 1

    def test_corruption_detected_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = GroupSpec.create(1, 1, 2)
        table = DimTable(spec, {(0, 0): 1})
        cache.get_dim_table("sh-dims", spec, lambda: table)
        (path,) = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
        data = json.loads(path.read_text())
        data["payload"]["dims"] = [[5, 5, 99]]
        path.write_text(json.dumps(data))

        calls = []

        def recompute():
            calls.append(1)
            return table

        again = cache.get_dim_table("sh-dims", spec, recompute)
        assert calls == [1]
        assert again.entries == table.entries

    def test_no_cache_output_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SUPERCOINV_CACHE", str(tmp_path / "c"))
        args = ["hilbert", "--m", "2", "--p", "2", "--n", "2", "--q-at", "1"]
        code1 = main(args)
        out1 = capsys.readouterr().out
        code2 = main(["--no-cache"] + args)
        out2 = capsys.readouterr().out
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_groebner_basis_round_trip(self, tmp_path):
        from supercoinv import groebner
        from supercoinv.cli import ResultCache

        cache = ResultCache(tmp_path)
        spec = GroupSpec.create(2, 2, 2)
        compute = lambda: groebner.buchberger(groebner.groebner_generators(2, 2, 2))
        first = cache.get_groebner_basis(spec, compute)
        second = cache.get_groebner_basis(
            spec, lambda: pytest.fail("should have come from the cache")
        )
        assert first == second
        assert second.is_reduced()

    @pytest.mark.parametrize("kind, argv", [
        ("sh-dims", ["hilbert", "--m", "1", "--n", "3"]),
        ("groebner", ["groebner", "--m", "3", "--n", "3", "--show-basis"]),
    ])
    @pytest.mark.parametrize("entry", [
        "[1, 2]",
        json.dumps({"payload": [1], "checksum": cli._checksum([1])}),
    ], ids=["file-not-an-object", "checksummed-payload-not-an-object"])
    def test_malformed_entry_is_recomputed(self, capsys, cache_dir, kind, argv, entry):
        spec = GroupSpec.create(int(argv[2]), 1, int(argv[4]))
        path = ResultCache(cache_dir)._path(kind, spec)
        cache_dir.mkdir()
        path.write_text(entry)
        code, out, _ = run(capsys, *argv)
        assert (code, out) == run(capsys, "--no-cache", *argv)[:2]
        assert code == EXIT_OK
        assert json.loads(path.read_text())["payload"] != [1]

    def test_cached_basis_of_another_rank_is_recomputed(self, capsys, cache_dir):
        # a correctly checksummed entry whose basis has two variables, under
        # the name of G(3,1,3)
        spec = GroupSpec.create(3, 1, 3)
        ResultCache(cache_dir).store("groebner", spec, {"n": 2, "generators": ["x1^3", "x2^3"]})
        argv = ["groebner", "--m", "3", "--n", "3", "--standard-monomials"]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (EXIT_OK, run(capsys, "--no-cache", *argv)[1])
        assert all(len(line.split()) == 3 for line in out.splitlines())
        stored = json.loads(ResultCache(cache_dir)._path("groebner", spec).read_text())
        assert stored["payload"]["n"] == 3

    def test_cached_table_of_another_group_is_recomputed(self, capsys, cache_dir):
        # a correctly checksummed S_3 entry that holds the table of G(2,1,2)
        spec = GroupSpec.create(1, 1, 3)
        other = DimTable(GroupSpec.create(2, 1, 2), {(0, 0): 1, (1, 0): 2})
        ResultCache(cache_dir).store("sh-dims", spec, other.to_json_dict())
        argv = ["hilbert", "--m", "1", "--n", "3"]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (EXIT_OK, run(capsys, "--no-cache", *argv)[1])
        stored = json.loads(ResultCache(cache_dir)._path("sh-dims", spec).read_text())
        assert stored["payload"]["group"] == {"m": 1, "p": 1, "n": 3}

    def test_cached_basis_with_theta_is_recomputed(self, capsys, cache_dir):
        spec = GroupSpec.create(3, 1, 1)
        ResultCache(cache_dir).store("groebner", spec, {"n": 1, "generators": ["x1^3 + t1"]})
        code, out, _ = run(capsys, "groebner", "--m", "3", "--n", "1", "--show-basis")
        assert (code, out) == (EXIT_OK, "x1^3\n")
        stored = json.loads(ResultCache(cache_dir)._path("groebner", spec).read_text())
        assert stored["payload"]["generators"] == ["x1^3"]

    def test_version_mismatch_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = GroupSpec.create(1, 1, 2)
        table = DimTable(spec, {(0, 0): 1})
        cache.get_dim_table("sh-dims", spec, lambda: table)
        (path,) = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
        data = json.loads(path.read_text())
        data["payload"]["version"] = 99
        # keep the checksum valid so only the schema version differs
        from supercoinv.cli import _checksum

        data["checksum"] = _checksum(data["payload"])
        path.write_text(json.dumps(data))
        calls = []
        cache.get_dim_table("sh-dims", spec, lambda: (calls.append(1), table)[1])
        assert calls == [1]


class TestStartUp:
    """Every CLI process compiles and imports the package; keep that cheap."""

    SRC = str(Path(__file__).resolve().parent.parent / "src")

    def loaded_after(self, *lines):
        # -S: no site hooks, so only the package's own imports are seen
        code = "import sys, supercoinv.cli as cli\n" + "\n".join(lines) + (
            "\nprint(sorted({'dataclasses', 'inspect', 'hashlib'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=self.SRC)
        out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.split("\n")[-2]

    def test_import_loads_no_dataclasses_inspect_or_hashlib(self):
        assert self.loaded_after() == "[]"

    def test_hashlib_is_loaded_by_a_cache_store_or_load(self, tmp_path):
        cache = f"cli.ResultCache({str(tmp_path)!r})"
        spec = "cli.GroupSpec(1, 1, 2)"
        assert self.loaded_after(f"{cache}.store('k', {spec}, [1])") == "['hashlib']"
        assert self.loaded_after(f"print({cache}.load('k', {spec}))") == "['hashlib']"

    @pytest.mark.skipif(
        sys.version_info >= (3, 12),
        reason="from 3.12 the tokenizer splits f-strings into several tokens",
    )
    def test_no_module_passes_8192_tokens(self):
        # CPython's parser doubles its token buffer past 8192 tokens, which
        # raises the peak memory of compiling the module.
        skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
        for path in sorted(Path(self.SRC, "supercoinv").glob("*.py")):
            with path.open("rb") as fh:
                count = sum(t.type not in skip for t in tokenize.tokenize(fh.readline))
            assert count <= 8192, path.name
