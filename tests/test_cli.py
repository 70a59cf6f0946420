"""Command-line interface: outputs, round trips, determinism, exit codes."""

import csv
import hashlib
import io
import time
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_imports import run_python

from sbseries import cli
from sbseries import trees as T
from sbseries.cli import main
from sbseries.paths import ColorMissing
from sbseries.trees import parse_tree


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestTrees:
    def test_enum_order_one_lists_four_trees(self):
        code, text = run("trees", "enum", "--model", "semilinear",
                         "--M", "1", "--cap", "1")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "tree,rho,alpha"
        assert len(lines) == 5
        trees = {line.split(",")[0] for line in lines[1:]}
        assert trees == {"1", "0", "A", "[1]1"}

    def test_enum_round_trips(self):
        code, text = run("trees", "enum", "--model", "semilinear",
                         "--M", "1", "--cap", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        for tree_str, _, _ in rows[1:]:
            assert str(parse_tree(tree_str)) == tree_str

    def test_enum_streams_its_top_order(self):
        # at every write, the live trees of the model are the 11,381 below
        # the top order, the time leaf and the tree of the row, where the
        # whole census of 40,394 used to be; a fresh interpreter, so that no
        # other test holds trees
        code = """if True:
            import io
            from sbseries import cli, trees as T
            model = T.SemiLinear(1)
            labels = [*model.node_labels(), *(t.label for t in model.adjoined_leaves())]
            peak, writes = 0, 0
            class Sink(io.StringIO):
                def write(self, text):
                    global peak, writes
                    peak = max(peak, sum(len(label.trees[0]) for label in labels))
                    writes += 1
                    return super().write(text)
            argv = ["trees", "enum", "--model", "semilinear", "--M", "1", "--cap", "5"]
            print(cli.main(argv, out=Sink()), writes, peak)
        """
        status, writes, peak = map(int, run_python(code).split())
        assert (status, writes) == (0, 40_395)
        assert peak <= 11_383

    @pytest.mark.parametrize("argv, order", [
        (("trees", "enum", "--model", "semilinear", "--M", "1", "--cap", "7"), "7"),
        (("series", "exact", "--model", "semilinear", "--M", "3", "--cap", "9/2"), "9/2"),
    ], ids=["trees-enum", "series-exact"])
    def test_over_cap_writes_nothing_and_exits_at_once(self, argv, order, capsys):
        start = time.perf_counter()
        assert run(*argv) == (2, "")
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"error: more than 1000000 trees below order {order}\n"

    def test_count_lists_each_order(self):
        assert run("trees", "count", "--model", "semilinear", "--M", "1", "--cap", "5") == (0, (
            "rho,count\n1/2,1\n1,3\n3/2,7\n2,21\n5/2,63\n3,202\n7/2,673\n"
            "4,2305\n9/2,8106\n5,29013\n"))

    @pytest.mark.parametrize("flags", [
        ("--model", "semilinear", "--M", "2"),
        ("--model", "general", "--model-preset", "langevin"),
        ("--model", "nonautonomous", "--M", "1", "--l", "2"),
    ], ids=["semilinear-2", "langevin", "nonautonomous"])
    def test_count_equals_the_enumerated_rows(self, flags, monkeypatch):
        _, text = run("trees", "enum", *flags, "--cap", "3")
        rows = Counter(row[1] for row in list(csv.reader(io.StringIO(text)))[1:])
        monkeypatch.setattr(T, "_built_trees", None)  # counting builds no tree
        code, text = run("trees", "count", *flags, "--cap", "3")
        assert code == 0
        assert text.splitlines()[1:] == [f"{r},{rows[r]}" for r in
                                         ("1/2", "1", "3/2", "2", "5/2", "3")]

    def test_count_above_its_order_bound_is_two(self, capsys):
        code, text = run("trees", "count", "--cap", "200")
        assert (code, text.count("\n")) == (0, 401)
        start = time.perf_counter()
        assert run("trees", "count", "--cap", "99999999999999999999/2") == (2, "")
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "error: --cap must be at most 200, got '99999999999999999999/2'\n")

    def test_info_reference_values(self):
        code, text = run("trees", "info", "[[[t,t]A,0]1,t]A")
        assert code == 0
        row = text.strip().splitlines()[1]
        assert row.endswith(",13/2,1/2")

    def test_split_and_alias_agree(self):
        code_a, text_a = run("trees", "split", "[1]1")
        code_b, text_b = run("split", "[1]1")
        assert code_a == code_b == 0
        assert text_a == text_b
        assert text_a.splitlines()[0] == "subtree,remainder,gamma"

    def test_general_model_enum(self):
        code, text = run("trees", "enum", "--model", "general",
                         "--model-preset", "langevin", "--cap", "3/2")
        assert code == 0
        assert len(text.strip().splitlines()) > 1


class TestSeries:
    def test_exact_series_output(self):
        code, text = run("series", "exact", "--model", "semilinear",
                         "--M", "1", "--cap", "2")
        assert code == 0
        rows = {line.split(",")[0]: line.rsplit(",", 1)[-1]
                for line in text.strip().splitlines()[1:]}
        assert rows["1"] == "dW1"
        assert rows["[1]1"] == "Int1[dW1]"


class TestErk:
    def test_residuals_cap_one_all_zero(self):
        code, text = run("erk", "residuals", "--method", "builtin:midpoint",
                         "--cap", "1")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "tree,rho,exact,numeric,residual"
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.rsplit(",", 1)[-1] == "0"

    def test_residuals_no_probe_keeps_symbolic_form(self):
        code, text = run("erk", "residuals", "--method", "builtin:midpoint",
                         "--cap", "1", "--no-probe")
        assert code == 0
        residuals = [line.rsplit(",", 1)[-1]
                     for line in text.strip().splitlines()[1:]]
        assert any(r != "0" for r in residuals)

    def test_cap_past_method_cap_is_two_without_rows(self, capsys):
        code, text = run("erk", "residuals", "--method", "builtin:midpoint",
                         "--cap", "4")
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error: ")

    def test_cap_at_method_cap_unchanged(self):
        code, text = run("erk", "residuals", "--method", "builtin:midpoint",
                         "--cap", "7/2")
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2fa43c7e1c51f51610e3610543987b0e4124b6e602908e43dc98c7cbe2afef26")

    def test_method_json_file_accepted(self, tmp_path):
        from sbseries.serk import builtin_exponential_midpoint, method_to_json
        path = tmp_path / "midpoint.json"
        path.write_text(method_to_json(builtin_exponential_midpoint()),
                        encoding="utf-8")
        code_file, text_file = run("erk", "residuals", "--method", str(path),
                                   "--cap", "1")
        code_builtin, text_builtin = run("erk", "residuals", "--method",
                                         "builtin:midpoint", "--cap", "1")
        assert code_file == 0
        assert text_file == text_builtin

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(stages=2),
        lambda d: d.update(stages=0),
        lambda d: d.update(stages=-1),
        lambda d: d.update(c=[]),
        lambda d: d.update(c=["1/0"]),
        lambda d: d.update(Z0=[]),
        lambda d: d.update(Z0=5),
        lambda d: d.update(colors=0),
        lambda d: [d],
        lambda d: d["z0"]["trees"].update({"g(1,1,0)": "h"}),
        lambda d: d.update(colors=-1, Z={}, z={}),
        lambda d: {k: v for k, v in d.items() if k != "Z0"},
        lambda d: {k: v for k, v in d.items() if k != "cap"},
        lambda d: d.update(name=[1]),
    ], ids=["stages-two", "stages-zero", "stages-negative", "c-empty",
            "c-zero-denominator", "Z0-empty", "Z0-number", "colors-zero",
            "top-level-list", "key-outside-model", "colors-negative",
            "Z0-missing", "cap-missing", "name-list"])
    def test_malformed_method_file_is_two(self, edit, tmp_path, capsys):
        import json
        from sbseries.serk import builtin_exponential_midpoint, method_to_json
        data = json.loads(method_to_json(builtin_exponential_midpoint()))
        data = edit(data) or data
        path = tmp_path / "method.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, text = run("erk", "residuals", "--method", str(path), "--cap", "1")
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if isinstance(data, dict):  # a missing field is named
            for field in {"Z0", "cap"} - set(data):
                assert f"missing field '{field}'" in err

    def test_non_integer_color_key_is_named(self, tmp_path, capsys):
        import json
        from sbseries.serk import builtin_exponential_midpoint, method_to_json
        data = json.loads(method_to_json(builtin_exponential_midpoint()))
        data["Z"]["x"] = data["Z"].pop("1")
        path = tmp_path / "method.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, text = run("erk", "residuals", "--method", str(path), "--cap", "1",
                         "--no-probe")
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == ("error: malformed method file: a color key "
                                           "of field 'Z' is not an integer: 'x'\n")

    def test_huge_color_count_is_two(self, tmp_path, capsys):
        # the color keys are counted before any series is read
        import json
        from sbseries.serk import builtin_exponential_midpoint, method_to_json
        data = json.loads(method_to_json(builtin_exponential_midpoint()))
        data["colors"] = 10 ** 12
        path = tmp_path / "method.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, text = run("erk", "residuals", "--method", str(path), "--cap", "1")
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == (
            "error: Z and z must be keyed by the colors 0..1000000000000\n")

    def test_unknown_interpretation_is_two_without_probe(self, tmp_path, capsys):
        # the method file's calculus is checked even when no probe reads it
        import json
        from sbseries.serk import builtin_exponential_midpoint, method_to_json
        data = json.loads(method_to_json(builtin_exponential_midpoint()))
        data["interpretation"] = "bogus"
        path = tmp_path / "method.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, text = run("erk", "residuals", "--method", str(path), "--cap", "1",
                         "--no-probe")
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: unknown interpretation 'bogus'\n"


class TestWeights:
    def test_mc_moments_shape(self):
        code, text = run("weights", "mc", "--expr", "dW1", "--h", "0.25",
                         "--N", "16", "--paths", "500", "--seed", "7")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "mean,variance,stderr"
        mean, var, se = map(float, lines[1].split(","))
        assert abs(mean) < 3 * se

    def test_seed_required(self):
        code, _ = run("weights", "mc", "--expr", "dW1", "--h", "0.25",
                      "--N", "16", "--paths", "10")
        assert code == 2


class TestDeterminism:
    def test_bit_identical_reruns(self):
        args = ("weights", "mc", "--expr", "Int1[s]", "--h", "0.5",
                "--N", "64", "--paths", "200", "--seed", "3")
        assert run(*args) == run(*args)

    def test_threads_flag_does_not_change_output(self):
        base = ("weights", "mc", "--expr", "dW1^2", "--h", "0.5",
                "--N", "32", "--paths", "100", "--seed", "5")
        assert run(*base, "--threads", "1") == run(*base, "--threads", "4")

    def test_converge_writes_csv(self, tmp_path):
        out_file = tmp_path / "report.csv"
        code, text = run("converge", "--problem", "scalar-semilinear",
                         "--paths", "40", "--seed", "7", "--h-coarse", "4",
                         "--h-fine", "6", "--n-fine", "1024",
                         "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "h,rms_error,se,slope"
        assert len(lines) == 4
        assert lines[-1].split(",")[-1] != ""

    def test_converge_threads_bit_identical(self, tmp_path):
        files = []
        for threads, name in [("1", "a.csv"), ("3", "b.csv")]:
            out_file = tmp_path / name
            code, _ = run("converge", "--problem", "scalar-semilinear",
                          "--paths", "30", "--seed", "11", "--h-coarse", "4",
                          "--h-fine", "5", "--n-fine", "512",
                          "--out", str(out_file), "--threads", threads)
            assert code == 0
            files.append(out_file.read_bytes())
        assert files[0] == files[1]


class TestPinnedOutputs:
    """Stdout digests recorded before paths were sampled and evaluated in
    chunks (a step count that is not a power of two, two colors, Ito, a
    path count that is not a multiple of the chunk size and a ^7 power),
    before trees were interned (models the benchmark digests do not
    cover, and a tree with repeated equal subtrees), and before labels were
    interned and A-node children were built only when valid (tree lists of
    three models)."""

    @pytest.mark.parametrize("argv, digest", [
        (("weights", "mc", "--expr", "Int1[Int1[dW1]]*dW2-1/2*Int0[dW1]",
          "--h", "0.3", "--N", "100", "--paths", "203", "--seed", "13",
          "--interp", "ito"),
         "e1bb9100f39646a54d79789fc6b358ad1b4f59818fb141be091ff7156675414b"),
        (("weights", "mc", "--expr",
          "1/3*Int0[Int1[s^4],s]-1/64*dW1^7+Int1[Int1[Int1[dW1]]]",
          "--h", "0.25", "--N", "256", "--paths", "203", "--seed", "7"),
         "1d8d3e26dc8ad123b2123831ddf73acc0c8ef631ce3a5c221030e5ff1da49fa5"),
        (("converge", "--problem", "noncomm-2x2", "--paths", "53", "--seed", "9",
          "--h-coarse", "3", "--h-fine", "6", "--n-fine", "1024"),
         "d9fd4efaf5f496b270b349d3f52c26fe6bf025fc6733d63872e4cfb4f2ff0bc7"),
        (("trees", "enum", "--model", "nonautonomous", "--M", "1", "--l", "1",
          "--cap", "4"),
         "dc1e0f6145f5f072ac9f12a0af4a58cf4da895b8a9b4fae525b58f800126f825"),
        (("trees", "split", "--full", "[[1,1]0,[1,1]0]0"),
         "ec47a16f990a7e96d8399b0d938906c0926729542d908e12e6fba72b33525069"),
        (("series", "exact", "--model", "semilinear", "--M", "2", "--cap", "3"),
         "153c646f08ab8da18ed41d931efce043eb0920f761540483fd40eb8d2af1ab30"),
        (("trees", "enum", "--model", "semilinear", "--M", "2", "--cap", "7/2"),
         "32b6c0254886ab1ab207c5a1ca8db19b91af5a4a9199a01c2a034e2681b2c0c6"),
        (("trees", "enum", "--model", "general", "--model-preset", "langevin",
          "--cap", "4"),
         "21cba0e3d7c64e4d64c599b2edfdbdd3c6138feb16d037d3303558e8dd178dee"),
        (("trees", "enum", "--model", "nonautonomous", "--M", "1", "--l", "2",
          "--cap", "7/2"),
         "70455721075e9b423a1ac65779bac1f3ee2e0532a0e7d3ae00ab65f4d32db491"),
    ], ids=["mc-ito-two-colors", "mc-stratonovich-deep", "converge",
            "enum-nonautonomous", "split-repeated-subtrees", "exact-semilinear-2",
            "enum-semilinear-2", "enum-langevin", "enum-nonautonomous-l2"])
    def test_stdout_digest(self, argv, digest):
        code, text = run(*argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


MC_FLAGS = ("--h", "0.5", "--N", "4", "--paths", "2", "--seed", "1")


class TestExitCodes:
    def test_usage_error_is_two(self):
        assert run("trees", "info", "[0,1]A")[0] == 2
        assert run("weights", "mc", "--expr", "nope(", "--h", "0.1",
                   "--N", "4", "--paths", "2", "--seed", "1")[0] == 2

    def test_unknown_problem_is_two(self):
        assert run("converge", "--problem", "nope", "--paths", "2",
                   "--seed", "1")[0] == 2

    @pytest.mark.parametrize("problem", ["langevin-partitioned", "langevin-vdep"])
    def test_partitioned_problem_is_invalid_choice(self, problem, capsys):
        code, text = run("converge", "--problem", problem, "--paths", "2",
                         "--seed", "1")
        assert code == 2
        assert text == ""
        assert "argument --problem: invalid choice" in capsys.readouterr().err

    def test_bad_ladder_is_two(self):
        assert run("converge", "--problem", "langevin", "--paths", "2",
                   "--seed", "1", "--h-coarse", "3", "--h-fine", "2")[0] == 2

    def test_unknown_converge_method_is_two(self):
        assert run("converge", "--problem", "langevin", "--paths", "2",
                   "--seed", "1", "--method", "foo")[0] == 2

    @pytest.mark.parametrize("argv", [
        ("trees", "info", "[" * 1200 + "0" + "]A" * 1200),
        ("weights", "mc", "--expr", "(" * 1200 + "h" + ")" * 1200) + MC_FLAGS,
    ], ids=["tree", "expr"])
    def test_deep_nesting_is_two_with_one_line_error(self, argv, capsys):
        code, text = run(*argv)
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_numerical_failure_is_three(self, tmp_path, monkeypatch, capsys):
        import sbseries.sim
        from sbseries.sim import StageDivergence

        def boom(*args, **kwargs):
            raise StageDivergence("stage blew up")

        monkeypatch.setattr(sbseries.sim, "ms_order_estimate", boom)
        code, _ = run("converge", "--problem", "scalar-semilinear",
                      "--paths", "2", "--seed", "1")
        assert code == 3
        capsys.readouterr()
        # moments that overflow: one line, no numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run("weights", "mc", "--expr", "dW1^400", "--h", "1e10",
                             "--N", "4", "--paths", "3", "--seed", "1")
        err = capsys.readouterr().err
        assert (code, text) == (3, "")
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_out_of_memory_is_two_with_one_line_error(self, monkeypatch, capsys):
        import sbseries.paths

        def boom(*args, **kwargs):
            raise MemoryError("cannot allocate the path array")

        monkeypatch.setattr(sbseries.paths, "mc_moments", boom)
        code, text = run("weights", "mc", "--expr", "dW1", *MC_FLAGS)
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert err.startswith("error: input too large for memory: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("argv, want", [
        (("trees", "enum", "--model", "semilinear", "--M", "1", "--cap", "1"), 0),
        (("trees", "info", "[0"), 2),
        (("converge", "--problem", "scalar-semilinear", "--paths", "2",
          "--seed", "1"), 3),
    ], ids=["exit-0", "exit-2", "exit-3"])
    def test_collector_state_is_restored(self, argv, want, enabled, monkeypatch,
                                         capsys):
        import gc

        import sbseries.sim
        from sbseries.sim import StageDivergence

        def boom(*args, **kwargs):
            raise StageDivergence("stage blew up")

        monkeypatch.setattr(sbseries.sim, "ms_order_estimate", boom)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code, _ = run(*argv)
            assert (code, gc.isenabled()) == (want, enabled)
        finally:
            (gc.enable if was else gc.disable)()
        capsys.readouterr()


    @pytest.mark.parametrize("argv, error, message", [
        (("trees", "enum", "--model", "general", "--cap", "1"), None,
         "general model requires --model-preset langevin "
         "(table-driven models are library-level)"),
        (("trees", "info", "[t]()"), None, "the empty tree cannot have children"),
        (("trees", "info", "[1,"), None, "unexpected end of input at position 3 in '[1,'"),
        (("trees", "info", "1"), RecursionError("maximum recursion depth exceeded"),
         "input nested too deeply"),
        (("weights", "mc", "--expr", "dW1") + MC_FLAGS,
         ColorMissing("path carries colors 1..1, not 2"), "path carries colors 1..1, not 2"),
    ], ids=["general-without-preset", "empty-tree-with-children", "end-of-input",
            "recursion", "color-missing"])
    def test_failure_is_two_with_its_error_line(self, argv, error, message, monkeypatch,
                                                capsys):
        # an injected error is raised by the command's handler
        def boom(*args):
            raise error

        if error is not None:
            monkeypatch.setattr(cli, f"cmd_{argv[0]}", boom)
        assert run(*argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


class TestInputValidation:
    @pytest.mark.parametrize("argv", [
        ("trees", "enum", "--cap", "1/0"),
        ("trees", "enum", "--cap", "-1"),
        ("weights", "mc", "--expr", "1/0") + MC_FLAGS,
        ("weights", "mc", "--expr", "h", "--h", "0.5", "--N", "4",
         "--paths", "0", "--seed", "1"),
        ("weights", "mc", "--expr", "h", "--h", "0.5", "--N", "0",
         "--paths", "2", "--seed", "1"),
        ("trees", "enum", "--M", "-1", "--cap", "1"),
        ("series", "exact", "--M", "-2", "--cap", "1"),
        ("trees", "enum", "--model", "nonautonomous", "--l", "-3", "--cap", "1"),
        ("trees", "enum", "--model", "semilinear", "--M", "10", "--cap", "1/2"),
        ("series", "exact", "--model", "semilinear", "--M", "100000", "--cap", "1/2"),
        ("trees", "info", "g(\u0661,1,0)"),
    ], ids=["cap-zero-denominator", "cap-negative", "expr-zero-denominator",
            "paths-zero", "steps-zero", "colors-negative", "series-colors-negative",
            "wiener-index-negative", "colors-above-digit", "series-colors-above-digit",
            "g-label-non-ascii-digit"])
    def test_rejected_with_one_line_error(self, argv, capsys):
        code, text = run(*argv)
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [("trees", "enum"), ("series", "exact")],
                             ids=["trees-enum", "series-exact"])
    @pytest.mark.parametrize("flag", ["--M", "--l"])
    def test_nonautonomous_size_above_the_cap_builds_no_model(self, command, flag,
                                                              monkeypatch, capsys):
        # each color and Wiener index adds a label or a leaf before the
        # enumeration cap can act, so the flag is bounded before the model
        # is built
        from sbseries import trees as T
        built = []

        def from_table(*args, **kwargs):
            built.append(kwargs)
            raise AssertionError("the model was built")

        monkeypatch.setattr(T.NonAutonomous, "from_table", from_table)
        code, text = run(*command, "--model", "nonautonomous",
                         flag, str(T.DEFAULT_ENUMERATION_CAP + 1), "--cap", "1/2")
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert err.startswith("error: --M and --l must be between 0 and 1000000, got ")
        assert built == []

    @pytest.mark.parametrize("h", ["nan", "inf", "0", "-1"])
    def test_mc_horizon_must_be_finite_and_positive(self, h, capsys):
        code, text = run("weights", "mc", "--expr", "dW1", "--h", h,
                         "--N", "4", "--paths", "2", "--seed", "1")
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ("--paths", "0"),
        ("--paths", "2", "--h-coarse", "2", "--h-fine", "2"),
        ("--paths", "2", "--h-coarse", "1", "--h-fine", "8"),
    ], ids=["paths-zero", "single-step-size", "more-rungs-than-the-fine-grid-refines"])
    def test_converge_rejected_with_one_line_error(self, flags, capsys):
        code, text = run("converge", "--problem", "langevin", "--seed", "1",
                         "--n-fine", "64", *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert text == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("T", ["nan", "inf", "-inf", "0"])
    def test_converge_horizon_must_be_finite_and_positive(self, T, capsys):
        code, text = run("converge", "--problem", "langevin", "--paths", "2", "--seed", "1",
                         "--n-fine", "64", f"--T={T}")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            f"error: need a finite positive horizon, got T={float(T)}\n")

    @pytest.mark.parametrize("argv, message", [
        (("converge", "--problem", "scalar-semilinear", "--paths", "2", "--seed", "1",
          "--T", "0.3"), "step 0.0625 does not divide the horizon 0.3"),
        (("converge", "--problem", "scalar-semilinear", "--paths", "2", "--seed", "1",
          "--n-fine", "100"), "fine grid does not refine step 0.0625"),
        (("weights", "mc", "--expr", "dW0") + MC_FLAGS,
         "increment atoms exist for stochastic colors only"),
        (("weights", "mc", "--expr", "h^h") + MC_FLAGS, "exponent must be an integer, got 'h'"),
        (("weights", "mc", "--expr", "dW1)") + MC_FLAGS, "trailing tokens from ')'"),
        (("weights", "mc", "--expr", "(h+dW1+dW2)^160") + MC_FLAGS,
         "product too large to expand: more than 200,000 term pairs"),
        (("weights", "mc", "--expr", "*".join(["(h+dW1+dW2)"] * 150)) + MC_FLAGS,
         "expression too large to expand: more than 50,000 term pairs"),
        (("weights", "mc", "--expr", "dW1") + MC_FLAGS[:-1] + ("-1",),
         "a seed must be non-negative, got -1"),
        (("weights", "mc", "--expr", "h") + MC_FLAGS[:-1] + ("-1",),
         "a seed must be non-negative, got -1"),
        (("converge", "--problem", "scalar-semilinear", "--paths", "2", "--seed", "-5"),
         "a seed must be non-negative, got -5"),
    ], ids=["step-divides-horizon", "fine-grid-refines-step", "dw0", "symbolic-exponent",
            "trailing-tokens", "product-too-large", "chain-too-large", "mc-negative-seed",
            "mc-negative-seed-no-paths", "converge-negative-seed"])
    def test_library_check_exits_two_with_its_error_line(self, argv, message, capsys):
        assert run(*argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_cap_zero_is_valid(self):
        assert run("trees", "enum", "--cap", "0") == (0, "tree,rho,alpha\n")


# Expression fragments whose concatenations stay cheap to evaluate: no
# token starts with a digit that could extend an exponent.
EXPR_TOKENS = ["h", "s", "dW0", "dW1", "dW2", "Int0[", "Int1[", "]", ",",
               "1/0", "3/2", "0/1", "^2", "^", "*", "+", "-", "(", ")", " "]
# Caps up to 3 in several spellings, including zero denominators,
# negative values and non-numbers.
CAPS = st.one_of(
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-3, 3), st.integers(-2, 2)),
    st.integers(-4, 6).map(lambda n: str(n / 2)),
    st.integers(-3, 3).map(str),
    st.text(alphabet="-/.e xa", max_size=4),
)


# Tree-string fragments: brackets, separators and the labels of all three
# families, valid or not, and a non-ASCII digit.
TREE_TOKENS = ["[", "]", ",", "0", "1", "2", "A", "t", "W", "()", "f",
               "g(1,1,0)", "\u0661"]
# Small order caps (<= 3/2) keep 'series exact' and 'erk residuals' fast.
SMALL_CAPS = st.sampled_from(["-1", "0", "1/2", "1", "3/2", "0.5", "1/0",
                              "x"])


# Small converge ladders: --n-fine <= 64 and --paths <= 4 keep each call
# cheap; the exponents and horizons include ones that cannot divide.
HORIZONS = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-300", "0.5",
                            "1", "2", "x"])
SMALL_INTS = st.sampled_from(["-2", "-1", "0", "1", "2", "3", "6", "x"])
# --M and --l, negative or not numbers included.
MODEL_SIZES = st.sampled_from(["-2", "-1", "0", "1", "2", "x"])


@given(cap=CAPS,
       expr=st.lists(st.sampled_from(EXPR_TOKENS), max_size=8).map("".join),
       paths=st.sampled_from(["-1", "0", "1", "2", "x", ""]),
       h=HORIZONS,
       converge=st.tuples(st.sampled_from(["-1", "0", "1", "4", "x"]),
                          SMALL_INTS, SMALL_INTS,
                          st.sampled_from(["-8", "0", "1", "3", "16", "64", "x"]),
                          HORIZONS),
       tree=st.lists(st.sampled_from(TREE_TOKENS), max_size=10).map("".join),
       small_cap=SMALL_CAPS,
       model_sizes=st.tuples(MODEL_SIZES, MODEL_SIZES))
@settings(max_examples=60, deadline=None)
def test_fuzzed_argv_exits_zero_two_or_three(cap, expr, paths, h, converge,
                                             tree, small_cap, model_sizes):
    assert run("trees", "enum", "--cap", cap)[0] in (0, 2, 3)
    assert run("trees", "count", "--cap", cap)[0] in (0, 2, 3)
    colors, leaves = model_sizes
    for model in (("semilinear",), ("general", "--model-preset", "langevin"),
                  ("nonautonomous",)):
        for command in ("enum", "count"):
            code, _ = run("trees", command, "--cap", "1", "--model", *model,
                          "--M", colors, "--l", leaves)
            assert code in (0, 2, 3)
    for argv in (("trees", "info", tree), ("trees", "split", tree),
                 ("trees", "split", tree, "--full"), ("split", tree)):
        assert run(*argv)[0] in (0, 2, 3)
    assert run("series", "exact", "--cap", small_cap)[0] in (0, 2, 3)
    assert run("erk", "residuals", "--method", "midpoint",
               "--cap", small_cap)[0] in (0, 2, 3)
    code, _ = run("weights", "mc", "--expr", expr, "--h", "0.5", "--N", "4",
                  "--paths", paths, "--seed", "1")
    assert code in (0, 2, 3)
    code, _ = run("weights", "mc", "--expr", "dW1", "--h", h, "--N", "4",
                  "--paths", "2", "--seed", "1")
    assert code in (0, 2, 3)
    conv_paths, coarse, fine, n_fine, horizon = converge
    code, _ = run("converge", "--problem", "scalar-semilinear", "--seed", "1",
                  "--paths", conv_paths, "--h-coarse", coarse, "--h-fine", fine,
                  "--n-fine", n_fine, "--T", horizon)
    assert code in (0, 2, 3)
