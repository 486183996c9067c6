"""Command-line interface: exit codes, report schema, reproducibility."""

import csv
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sqlab import circle, experiments, operators
from sqlab.arith import DomainError
from sqlab.cli import COMMANDS, build_parser, main, runner

README = Path(__file__).resolve().parent.parent / "README.md"
TOL_COMMANDS = [c for c, (_, flags) in COMMANDS.items() if any(flag == "--tol" for flag, _, _ in flags)]


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def strict_loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestModuleEntry:
    """python -m sqlab, from the checkout's src without an install."""

    @staticmethod
    def _run(*argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-m", "sqlab", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )

    def test_report_and_exit_zero(self):
        done = self._run("gauss-check", "--q-max", "3")
        assert done.returncode == 0 and done.stderr == ""
        assert strict_loads(done.stdout)["name"] == "gauss-check"

    def test_bad_input_exits_one_with_one_line(self):
        done = self._run("high-low", "--j", "3")
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("sqlab: error: ") and done.stderr.count("\n") == 1


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        code, _ = run(["gauss-check", "--q-max", "20"], tmp_path)
        assert code == 0

    def test_unknown_command_is_one(self, capsys):
        assert main(["no-such-command"]) == 1
        capsys.readouterr()

    def test_bad_flag_is_one(self, capsys):
        assert main(["gauss-check", "--bogus"]) == 1
        capsys.readouterr()

    def test_invariant_violation_is_two(self, tmp_path):
        out = tmp_path / "x.json"
        code = main(
            ["gauss-check", "--q-max", "20", "--tol", "1e-30", "--out", str(out)]
        )
        assert code == 2


    def test_zero_tolerance_is_honoured(self, capsys):
        # split_err is about 5.6e-17 here: 0 must not fall back to 1e-7
        argv = ["high-low", "--n", "64", "--j", "4", "--trials", "1", "--tol", "0"]
        assert main(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["improving-ratio", "--n", "4", "--p", "1"],
            ["poly-average", "--n", "4", "--p", "0.5"],
            ["multifreq", "--s", "0", "--grid", "256"],
            ["poly-average", "--coeffs", "0,0,0,0,0,0,0,1", "--n", "1024"],
            # shifts fit in int64 but the arrays need 40 TiB: refused unallocated
            ["poly-average", "--coeffs", "0,0,0,0,1", "--n", "1024"],
            # worker counts outside [1, cores]: refused before a pool exists
            ["fjk-constant", "--n", "16", "--grid", "64", "--threads", "0"],
            ["fjk-constant", "--n", "16", "--grid", "64", "--threads", "-1"],
            ["fjk-constant", "--n", "16", "--grid", "64", "--threads", str((os.cpu_count() or 1) + 1)],
            ["fjk-constant", "--n", "16", "--grid", "0"],
            # 4 N^2 = 2^26 quadrature panels at xi = 4: past the 2^21 budget
            ["gamma-decay", "--n", "4096", "--grid", "5"],
            # arrays past 2^47 bytes, which no address space can map:
            # numpy's MemoryError, raised before anything is allocated
            ["improving-ratio", "--n", "16777216", "--trials", "1"],
            ["sparse-demo", "--e-size", "1125899906842624"],
            # L = 2^35: 1.5 TiB of grids, refused before anything is allocated
            ["high-low", "--n", "65536", "--trials", "1"],
            # 10^15 scan points, and one period of 2^41 points at q = J
            ["lowpass-scan", "--j", "64", "--x-max", "1000000000000000"],
            ["lowpass-scan", "--j", "1099511627776"],
            # counts that measure nothing, and a negative scan window
            ["improving-ratio", "--n", "16", "--trials", "0"],
            ["multifreq", "--octaves", "0"],
            ["high-low", "--trials", "-2"],
            ["lowpass-scan", "--x-max", "-1"],
            ["gauss-check", "--q-max", "0"],
            ["hsum-identities", "--q-max", "-3"],
            ["gamma-decay", "--grid", "0"],
            # an infinite exponent has no dual exponent above 1
            ["improving-ratio", "--n", "16", "--p", "inf", "--trials", "1"],
            ["poly-average", "--n", "16", "--p", "inf", "--trials", "1"],
            # stopping constants and densities outside their domain
            ["sparse-demo", "--c-stop", "nan"],
            ["sparse-demo", "--c-stop", "inf"],
            ["sparse-demo", "--c-stop", "0"],
            ["sparse-demo", "--c-stop", "-1"],
            ["sparse-demo", "--density", "nan"],
            ["sparse-demo", "--density", "1.5"],
            ["sparse-demo", "--density", "-0.1"],
            # superlevel thresholds that are not finite and positive
            ["halfdim", "--n", "4", "--eps", "nan,-1"],
            ["halfdim", "--n", "4", "--eps", "inf"],
            ["halfdim", "--n", "4", "--eps", "0"],
            # a usage error, and a report that cannot be written
            ["improving-ratio", "--n", "3"],
            ["gauss-check", "--q-max", "2", "--out", "/nonexistent/dir/x.json"],
            # a split with no squares to average
            ["high-low", "--n", "0"],
            ["high-low", "--n", "-4"],
            # a grid larger than memory, far past what numpy could allocate
            ["multifreq", "--grid", str(1 << 50)],
            # a grid with no points, refused before the preflight counts it
            ["multifreq", "--grid", "0"],
            ["multifreq", "--grid", "-8"],
            # 4 N grid = 2^55, past exact float64 offsets; and 2^46 grid points
            ["fjk-constant", "--n", "4096", "--grid", str(1 << 41)],
            ["fjk-constant", "--n", "16", "--grid", str(1 << 46)],
        ],
    )
    def test_bad_input_is_one_line_and_one(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("sqlab: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", TOL_COMMANDS)
    def test_bad_tolerance_is_usage_error(self, command, tol, capsys):
        # a tolerance no error can meet is bad input, not an invariant violation
        assert main([command, "--tol", tol]) == 1
        err = capsys.readouterr().err
        assert err == f"sqlab: error: argument --tol: {tol} is not a finite non-negative tolerance\n"

    @pytest.mark.parametrize("s", ["0", "-3", "2,-3"])
    def test_multifreq_names_a_bad_level(self, s, capsys):
        assert main(["multifreq", "--s", s, "--grid", "64", "--trials", "1"]) == 1
        err = capsys.readouterr().err
        bad = s.split(",")[-1]
        assert err == f"sqlab: error: argument --s: {bad} is not a positive integer\n"

    @pytest.mark.parametrize("grid", ["0", "-8"])
    def test_multifreq_names_a_bad_grid(self, grid, capsys):
        assert main(["multifreq", "--grid", grid, "--trials", "1"]) == 1
        assert capsys.readouterr().err == f"sqlab: error: multifreq: grid={grid} must be positive\n"

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_high_low_names_a_bad_n(self, n, capsys):
        assert main(["high-low", "--n", n]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ("--n" in err or f"N={n}" in err)
        # the runner refuses it too, before its memory preflight
        with pytest.raises(DomainError, match=f"N={n} "):
            experiments.run_high_low(int(n))

    def test_poly_average_preflight_counts_the_fft_route(self, monkeypatch, capsys):
        # 1 MiB of memory: at N = 128 the direct buffers (0.6 MB) fit, but
        # the FFT route the average takes above 64 shifts needs 2.2 MB
        memory = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(experiments.os, "sysconf", memory.__getitem__)
        argv = ["poly-average", "--coeffs", "0,0,1", "--trials", "1", "--n"]
        assert main(argv + ["64"]) == 0
        capsys.readouterr()
        assert main(argv + ["128"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sqlab: error: poly-average at N=128 needs") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, job",
        [
            (["improving-ratio", "--n", "16,1024", "--trials", "1"], "improving-ratio at N=1024"),
            (["orlicz-ratio", "--n", "16,1024", "--trials", "1"], "orlicz-ratio at N=1024"),
            (["halfdim", "--n", "16,1024", "--eps", "0.5"], "halfdim at N=1024"),
            (["sparse-demo", "--e-size", "65536"], "sparse-demo at e_size=65536"),
        ],
    )
    def test_preflight_refuses_before_any_draw(self, monkeypatch, capsys, argv, job):
        # 1 MiB of memory: the job is refused with one line before it draws
        # a signal, also where an earlier N would have fit
        drawn = []
        make_rng = experiments.make_rng
        monkeypatch.setattr(experiments, "make_rng", lambda seed: drawn.append(seed) or make_rng(seed))
        memory = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(experiments.os, "sysconf", memory.__getitem__)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sqlab: error: {job} needs ") and err.count("\n") == 1
        assert drawn == []

    @pytest.mark.parametrize(
        "run, args",
        [
            (experiments.run_improving_ratio, ([64], 1.6, 2, 0)),
            (experiments.run_improving_ratio, ([128], 1.6, 2, 0)),
            (experiments.run_orlicz_ratio, ([64], 2, 0)),
            (experiments.run_orlicz_ratio, ([128], 2, 0)),
            (experiments.run_halfdim, ([64, 128], [0.25, 0.5], "random", 0)),
            (experiments.run_sparse_demo, (1 << 13, 1.0, 8.0, 0)),
            (experiments.run_sparse_demo, (4096, 0.1, 8.0, 0)),
            (experiments.run_poly_average, ((0, 0, 1), [64], 1.6, 2, 0)),
            (experiments.run_poly_average, ((0, 1, 1), [128], 1.6, 2, 0)),
        ],
    )
    def test_preflight_bounds_the_traced_peak(self, monkeypatch, run, args):
        # both routes of the average (direct at N <= 64, FFT above)
        counts = []
        monkeypatch.setattr(experiments, "_require_memory", lambda job, need: counts.append(need))
        tracemalloc.start()
        try:
            run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(counts)

    def test_high_low_preflight_refuses_before_allocating(self, monkeypatch, capsys):
        # the count is read off a refusal at one byte of memory; with one
        # byte less than the count the job is refused before it draws f,
        # and with exactly the count it runs
        drawn = []
        make_rng = experiments.make_rng
        monkeypatch.setattr(experiments, "make_rng", lambda seed: drawn.append(seed) or make_rng(seed))
        argv = ["high-low", "--n", "64", "--j", "4,16", "--trials", "2"]

        def run_with(memory):
            pages = {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}
            monkeypatch.setattr(experiments.os, "sysconf", pages.__getitem__)
            code = main(argv)
            return code, capsys.readouterr().err

        code, err = run_with(1)
        assert code == 1 and err.count("\n") == 1
        need = int(re.fullmatch(r"sqlab: error: high-low at N=64 needs (\d+) bytes .*\n", err).group(1))
        code, err = run_with(need - 1)
        assert code == 1 and f"needs {need} bytes" in err and drawn == []
        assert run_with(need) == (0, "")
        assert drawn == [0]

    @staticmethod
    def _high_low_count_and_peak(monkeypatch, N, j_list, trials):
        counts = []
        monkeypatch.setattr(experiments, "_require_memory", lambda job, need: counts.append(need))
        tracemalloc.start()
        try:
            experiments.run_high_low(N, j_list, trials)
            return counts[0], tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("N, trials", [pytest.param(256, 1, id="1"), pytest.param(256, 3, id="3"), pytest.param(64, 2, id="64-2")])
    def test_high_low_preflight_bounds_the_traced_peak(self, monkeypatch, N, trials):
        # at N = 64, J = 16 = N/4 does not split: A_N f comes after J = 4's Low
        count, peak = self._high_low_count_and_peak(monkeypatch, N, [4, 16], trials)
        assert peak <= count <= 1.25 * peak

    def test_high_low_preflight_covers_the_unsplit_route(self, monkeypatch):
        # J = 64 = N/4 does not split: A_N f's arrays and the audit's
        count, peak = self._high_low_count_and_peak(monkeypatch, 256, [64], 2)
        assert peak <= count

    @pytest.mark.parametrize("s_list, octaves, trials", [((2,), 1, 1), ((1,), 3, 3), ((2, 3, 4, 5), 3, 2)])
    def test_multifreq_preflight_bounds_the_traced_peak(self, monkeypatch, s_list, octaves, trials):
        counts = []
        monkeypatch.setattr(experiments, "_require_memory", lambda job, need: counts.append(need))
        tracemalloc.start()
        try:
            experiments.run_multifreq(s_list, octaves, trials, 0, 1 << 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counts[0] <= 1.25 * peak

    @pytest.mark.parametrize("n_list, threads", [((256,), 1), ((16, 1024, 4096), 2)])
    def test_fjk_preflight_bounds_the_traced_peak(self, monkeypatch, n_list, threads):
        counts = []
        monkeypatch.setattr(experiments, "_require_memory", lambda job, need: counts.append(need))
        tracemalloc.start()
        try:
            experiments.run_fjk_constant(n_list, 1 << 15, min(threads, os.cpu_count() or 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counts[0] <= 1.25 * peak

    @pytest.mark.parametrize(
        "run, args",
        [
            (experiments.run_high_low, (16, [1, 2], 1)),
            (experiments.run_high_low, (32, [1, 2], 1)),
            (experiments.run_fjk_constant, ([16], 64, 1)),
            (experiments.run_fjk_constant, ([16], 512, 1)),
            (experiments.run_multifreq, ([1], 1, 1, 0, 64)),
            (experiments.run_multifreq, ([1], 1, 1, 0, 512)),
        ],
    )
    def test_preflight_counts_an_unbuilt_fresnel_table(self, monkeypatch, run, args):
        # the first gamma_N call builds the Fresnel table, a traced peak of
        # about 284 KB, more than these small runs take beside it
        circle._fresnel_table.cache_clear()
        counts = []
        monkeypatch.setattr(experiments, "_require_memory", lambda job, need: counts.append(need))
        tracemalloc.start()
        try:
            run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert circle._fresnel_table.cache_info().currsize == 1
        assert peak <= counts[0]

    def test_fjk_names_n_and_grid_past_exact_offsets(self, capsys):
        assert main(["fjk-constant", "--n", "16,4096", "--grid", str(1 << 40)]) == 1
        assert capsys.readouterr().err == (
            f"sqlab: error: fjk-constant: N=4096, grid={1 << 40} needs 1 <= N and 4 N grid <= 2^53\n"
        )

    @pytest.mark.parametrize(
        "j_list, x_max, adversarial",
        [
            ([4096], 0, False),
            ([64, 256, 1024], 30000, True),
            ([4, 8, 16, 32], 200000, False),
            # no prime above isqrt(J) for J <= 2, and few multiples in the window
            ([1], 0, True),
            ([2, 4], 0, True),
        ],
    )
    def test_lowpass_preflight_bounds_the_traced_peak(self, monkeypatch, j_list, x_max, adversarial):
        counts = []
        monkeypatch.setattr(experiments, "_require_memory", lambda job, need: counts.append(need))
        tracemalloc.start()
        try:
            experiments.run_lowpass_scan(j_list, x_max, adversarial)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counts[0]

    @pytest.mark.parametrize("N", [128, 256])
    def test_improving_preflight_is_tight_on_the_fft_route(self, monkeypatch, N):
        # N > 64 averages by FFT, counted at its traced peak
        counts = []
        monkeypatch.setattr(experiments, "_require_memory", lambda job, need: counts.append(need))
        tracemalloc.start()
        try:
            experiments.run_improving_ratio([N], 1.6, 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counts[0] <= 1.25 * peak

    @pytest.mark.parametrize(
        "run, args",
        [
            (experiments.run_improving_ratio, ([64], 1.6, 2, 0)),
            (experiments.run_orlicz_ratio, ([64], 2, 0)),
            (experiments.run_sparse_demo, (1 << 13, 1.0, 8.0, 0)),
            (experiments.run_sparse_demo, (4096, 0.1, 8.0, 0)),
            (experiments.run_lowpass_scan, ([64, 256, 1024], 30000, True)),
            (experiments.run_lowpass_scan, ([4, 8, 16, 32], 200000, False)),
            (experiments.run_lowpass_scan, ([64, 256, 1024, 4096], 100000, True)),
            # windows that reach the candidates past x_max
            (experiments.run_lowpass_scan, ([128], 0, True)),
            (experiments.run_lowpass_scan, ([4096], 0, True)),
            (experiments.run_lowpass_scan, ([8192], 100, True)),
        ],
    )
    def test_preflight_is_tight_where_no_fft_average_dominates(self, monkeypatch, run, args):
        # N <= 64 takes the direct route of the average, whose count is
        # exact, and the scans are mostly S; lowpass-scan factorizes from
        # the sieve in its FactorTables, built and dropped with each run, so
        # its peak is that of a fresh process whatever arith's cache holds
        counts = []
        monkeypatch.setattr(experiments, "_require_memory", lambda job, need: counts.append(need))
        tracemalloc.start()
        try:
            run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(counts) <= 1.25 * peak

    @pytest.mark.parametrize(
        "argv",
        [
            ["gauss-check", "--q-max", "20"],
            ["hsum-identities", "--q-max", "20"],
            ["gamma-decay", "--n", "64", "--grid", "10"],
            ["high-low", "--n", "64", "--j", "4", "--trials", "1"],
        ],
    )
    def test_violation_names_value_and_bound(self, argv, capsys):
        assert main(argv + ["--tol", "0"]) == 2
        err = capsys.readouterr().err
        found = re.fullmatch(r"sqlab: invariant violation: .+ = (\S+) exceeds bound (\S+)\n", err)
        assert found, err
        assert float(found[1]) > float(found[2]) == 0.0

    def test_high_low_requires_the_kernel_bound(self, monkeypatch, capsys):
        # U_J = -1 makes (3/4) J (1 + U_J) = 0, under any low_ratio of a split J
        monkeypatch.setattr(experiments.hsums, "upper_bound_S", lambda J, tables: -1.0)
        assert main(["high-low", "--n", "64", "--j", "4", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        found = re.fullmatch(
            r"sqlab: invariant violation: low_ratio at J=4 \(bounded by 3J\(1 \+ U_J\)/4\) = (\S+) exceeds bound 0\.0\n", err
        )
        assert found and float(found[1]) > 0, err

    @pytest.mark.parametrize("squares", [range(1, 64), range(0, 64)], ids=["without-N^2", "0^2-for-N^2"])
    def test_high_low_requires_the_weyl_route(self, monkeypatch, capsys, squares):
        # W from a Weyl symbol one square off misses A_N f, the exact shifted
        # sum, by f(x + N^2)/N: split_err catches it
        import numpy as np

        def wrong(N, M):
            return np.conj(np.fft.rfft(np.bincount(np.array(squares) ** 2 % M, minlength=M) / N))

        monkeypatch.setattr(operators, "_weyl_half", wrong)
        assert main(["high-low", "--n", "64", "--j", "4", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        found = re.fullmatch(
            r"sqlab: invariant violation: split error \|high \+ low - A_N f\| at J=4 = (\S+) exceeds bound 1e-07\n", err
        )
        assert found and float(found[1]) > 0.9 / 64, err

    def test_fft_average_requires_integer_sums(self, monkeypatch, capsys):
        # an inverse transform 0.3 off moves N A_N chi_G off the integers
        import numpy as np

        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda a, n: irfft(a, n) + 0.3)
        assert main(["halfdim", "--n", "128", "--eps", "0.5"]) == 2
        err = capsys.readouterr().err
        found = re.fullmatch(
            r"sqlab: invariant violation: FFT shift-sum deviation from an integer = (\S+) exceeds bound 0\.25\n", err
        )
        assert found and 0.29 < float(found[1]) < 0.31, err


class TestFlags:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_flag_names_a_runner_parameter(self, command):
        params = inspect.signature(runner(command)).parameters
        for flag, dest, _ in COMMANDS[command][1]:
            assert dest in params, (command, flag)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gauss-check", "--seed", "3"],
            ["lowpass-scan", "--tol", "0"],
            ["high-low", "--threads", "2"],
        ],
    )
    def test_flag_the_runner_does_not_take_is_one(self, argv, capsys):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"gamma-decay"}))
    def test_defaults_are_the_runner_defaults(self, command, capsys):
        # gamma-decay is left out for time (about 10 s)
        assert main([command]) == 0
        assert capsys.readouterr().out == runner(command)().to_json()

    def test_readme_examples_parse(self):
        lines = re.findall(r"^sqlab (.*)$", README.read_text(), flags=re.MULTILINE)
        assert len(lines) >= len(COMMANDS)
        for line in lines:
            build_parser().parse_args(shlex.split(line, comments=True))

    @pytest.mark.parametrize("flag, expected", [("--adversarial", True), ("--no-adversarial", False)])
    def test_adversarial_switch_reaches_runner(self, flag, expected, tmp_path):
        code, text = run(["lowpass-scan", "--j", "4", "--x-max", "50", flag], tmp_path)
        assert code == 0
        assert strict_loads(text)["parameters"]["adversarial"] is expected

    def test_lowpass_normalises_every_j_above_one(self, tmp_path):
        # S_1 = 0 is left as it is; from J = 2 on, max_S is divided by ln(J)^2
        code, text = run(["lowpass-scan", "--j", "1,2,4", "--x-max", "50"], tmp_path)
        assert code == 0
        rows = strict_loads(text)["rows"]
        assert rows[0][2] == rows[0][3] == 0.0
        for J, _, top, normalised in rows[1:]:
            assert top > 0 and normalised == top / math.log(J) ** 2


class TestReportSchema:
    def test_json_keys(self, tmp_path):
        _, text = run(["gauss-check", "--q-max", "15"], tmp_path)
        doc = strict_loads(text)
        assert set(doc) == {"name", "parameters", "metadata", "columns", "rows"}
        assert all(len(r) == len(doc["columns"]) for r in doc["rows"])

    def test_csv_header(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(
            ["hsum-identities", "--q-max", "12", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0][0] == "identity"
        assert len(rows) > 1

    def test_stdout_default(self, capsys):
        assert main(["gauss-check", "--q-max", "10"]) == 0
        doc = strict_loads(capsys.readouterr().out)
        assert doc["name"] == "gauss-check"


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["improving-ratio", "--n", "4,8", "--trials", "3", "--seed", "7"],
            ["sparse-demo", "--e-size", "256", "--seed", "7"],
            ["multifreq", "--s", "2,3", "--trials", "2", "--seed", "7", "--grid", "1024"],
        ],
    )
    def test_same_seed_same_bytes(self, argv, tmp_path):
        _, a = run(argv, tmp_path, "a.json")
        _, b = run(argv, tmp_path, "b.json")
        assert a == b and a


class TestSmallRuns:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lowpass-scan", "--j", "4,8", "--x-max", "500"],
            ["fjk-constant", "--n", "16,32", "--grid", "512"],
            ["gamma-decay", "--n", "32", "--grid", "40"],
            ["orlicz-ratio", "--n", "4,8", "--trials", "2"],
            ["halfdim", "--n", "8,16", "--eps", "0.5", "--strategy", "squares"],
            # eps^3 overflows a float, but the superlevel set is empty
            ["halfdim", "--n", "4", "--eps", "1e308"],
            ["poly-average", "--coeffs", "0,0,1", "--n", "4,8", "--trials", "2"],
            ["high-low", "--n", "64", "--j", "4", "--trials", "2"],
            # an odd grid length: the Weyl grid mirrors L//2 bins, not L/2 - 1
            ["fjk-constant", "--n", "4", "--grid", "3"],
        ],
    )
    def test_exit_zero(self, argv, tmp_path):
        code, text = run(argv, tmp_path)
        assert code == 0
        strict_loads(text)
