"""Command-line entry points, exercised in process through cli.main."""

import contextlib
import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import homsim
from homsim import default_run_config, fit_hom_model, histogram, normalize, rebin, run_replicas
from homsim.cli import main
from homsim.histogram import MAX_BINS
from homsim.detection import tac_mca_histogram
from homsim.analysis import hom_model_curves
from homsim.fileio import RESULT_FIELDS, read_config, read_histogram, read_timetags, write_histogram

G2_PAR_A_AT_02 = 0.628408866133492004
G2_ORTH_A_AT_02 = 0.751707348104295243


def _rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0].startswith("tau_ns,")
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def test_analytic_stdout(capsys):
    assert main(["analytic"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("# gamma_spon = 1.0, gamma_pure = 3.0, w_p = 2.5")
    assert lines[1] == "# t2_ns = 0.29"
    header, rows = _rows(out)
    assert header == ["tau_ns", "g1", "g2_source", "g2_par", "g2_orth", "g2_par_irf", "g2_orth_irf"]
    assert len(rows) == 81  # tau_max/40 grid, symmetric around zero
    mid = rows[40]
    assert float(mid[0]) == 0.0
    assert mid[3] == "0.0"  # parallel curve vanishes exactly at zero delay
    assert mid[4] == "0.5"


def test_analytic_frozen_values(tmp_path):
    path = tmp_path / "curves.csv"
    assert main(["analytic", "--out", str(path)]) == 0
    _, rows = _rows(path.read_text())
    tau = np.array([float(r[0]) for r in rows])
    k = int(np.argmin(np.abs(tau - 0.2)))
    assert abs(tau[k] - 0.2) < 1e-12
    assert abs(float(rows[k][3]) - G2_PAR_A_AT_02) <= 1e-9
    assert abs(float(rows[k][4]) - G2_ORTH_A_AT_02) <= 1e-9


def test_analytic_theta_zero_collapse(tmp_path):
    path = tmp_path / "flat.csv"
    assert main(["analytic", "--theta", "0.0", "--out", str(path)]) == 0
    _, rows = _rows(path.read_text())
    for r in rows:
        assert r[3] == r[4]  # identical floats print identically


def test_analytic_molecule_header(tmp_path):
    path = tmp_path / "mol.csv"
    assert main(["analytic", "--gamma-spon", repr(1 / 3.4), "--gamma-pure", "0.2",
                 "--out", str(path)]) == 0
    assert "# t2_ns = 2.88" in path.read_text()


def test_analytic_rejects_bad_step():
    assert main(["analytic", "--tau-step-ns", "-0.1"]) == 3


def test_simulate_outputs_and_reproducibility(tmp_path):
    base = ["simulate", "--seed", "9", "--duration-ns", "50000", "--pol", "parallel"]
    assert main(base + ["--out", str(tmp_path / "a")]) == 0
    for suffix in (".config.txt", ".tags.csv", ".hist.csv"):
        assert (tmp_path / ("a" + suffix)).exists()
    assert main(base + ["--out", str(tmp_path / "b")]) == 0
    for suffix in (".config.txt", ".tags.csv", ".hist.csv"):
        assert (tmp_path / ("a" + suffix)).read_bytes() == (tmp_path / ("b" + suffix)).read_bytes()


def test_simulate_config_echo_rerun(tmp_path):
    assert main(["simulate", "--seed", "5", "--duration-ns", "40000",
                 "--out", str(tmp_path / "a")]) == 0
    # rerunning from the echoed config alone must reproduce the data exactly
    assert main(["simulate", "--config", str(tmp_path / "a.config.txt"),
                 "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a.hist.csv").read_bytes() == (tmp_path / "c.hist.csv").read_bytes()
    assert (tmp_path / "a.tags.csv").read_bytes() == (tmp_path / "c.tags.csv").read_bytes()


def test_simulate_flag_overrides_config(tmp_path):
    assert main(["simulate", "--seed", "5", "--duration-ns", "40000",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", str(tmp_path / "a.config.txt"),
                 "--seed", "10", "--pol", "orthogonal", "--out", str(tmp_path / "d")]) == 0
    rc = read_config(tmp_path / "d.config.txt")
    assert rc.seed == 10
    assert rc.interferometer.pol_mode == "orthogonal"


TAC_CONFIG = ("pol_mode = orthogonal\ncorrelation_mode = tac\nefficiency_3 = 0.3\nefficiency_4 = 0.3\n"
              "dead_time_3 = 22.0\ndead_time_4 = 22.0\n")


@pytest.mark.parametrize("config, flags", [("", ["--pol", "parallel", "--duration-ns", "200000"]),
                                           (TAC_CONFIG, ["--duration-ns", "500000"])], ids=["parallel-full", "tac"])
def test_simulate_tags_recorrelate_to_histogram(tmp_path, config, flags):
    # the tags a run writes are the timeline its histogram was built from
    cfg = tmp_path / "run.config.txt"
    cfg.write_text(config)
    assert main(["simulate", "--config", str(cfg), "--seed", "3", *flags, "--out", str(tmp_path / "r")]) == 0
    rc = read_config(tmp_path / "r.config.txt")
    tags = read_timetags(tmp_path / "r.tags.csv")
    hist = read_histogram(tmp_path / "r.hist.csv")
    assert hist.total_counts > 0
    assert np.array_equal(tac_mca_histogram(tags, rc.detection).counts, hist.counts)


@pytest.mark.parametrize("config, flags", [("", ["--pol", "parallel"]), (TAC_CONFIG, [])], ids=["parallel-full", "tac"])
def test_simulate_does_not_depend_on_block_size(tmp_path, monkeypatch, capsys, config, flags):
    # one run through every block loop (route's arm and port draws, the pair
    # search, the survival sums, the port fill, the correlator and both
    # writers) at 7 entries per block, then at the default
    cfg = tmp_path / "run.config.txt"
    cfg.write_text(config)
    users = [m for name, m in sys.modules.items() if name.startswith("homsim.") and hasattr(m, "BLOCK")]
    assert {m.__name__ for m in users} >= {"homsim.histogram", "homsim.interferometer", "homsim.fileio"}
    runs = []
    for block in (7, histogram.BLOCK):
        (tmp_path / str(block)).mkdir()
        monkeypatch.chdir(tmp_path / str(block))
        with contextlib.ExitStack() as stack:
            for m in users:
                stack.enter_context(mock.patch.object(m, "BLOCK", block))
            assert main(["simulate", "--config", str(cfg), "--seed", "4", "--duration-ns", "20000", *flags,
                         "--out", "r"]) == 0
        outputs = [Path("r" + suffix).read_bytes() for suffix in (".hist.csv", ".tags.csv", ".config.txt")]
        runs.append(outputs + [capsys.readouterr().out])
    assert runs[0] == runs[1]
    assert runs[1][1].count(b"\n") > 7 * 7


def test_analyze_pipeline(tmp_path, capsys):
    assert main(["simulate", "--seed", "21", "--duration-ns", "1500000", "--pol", "parallel",
                 "--out", str(tmp_path / "par")]) == 0
    assert main(["simulate", "--seed", "22", "--duration-ns", "1500000", "--pol", "orthogonal",
                 "--out", str(tmp_path / "orth")]) == 0
    assert main(["analyze", "--par", str(tmp_path / "par.hist.csv"),
                 "--orth", str(tmp_path / "orth.hist.csv"), "--out", str(tmp_path / "an")]) == 0
    out = capsys.readouterr().out
    assert "converged True" in out
    text = (tmp_path / "an.results.txt").read_text()
    vals = dict(l.split(" = ") for l in text.splitlines())
    assert vals["converged"] == "true"
    assert 1.5 < float(vals["t2_hat_ns"]) < 4.5
    assert 0.0 <= float(vals["background_hat"]) < 0.2
    diff_lines = (tmp_path / "an.diff.csv").read_text().splitlines()
    assert diff_lines[0] == "tau_ns,value,sigma"
    assert len(diff_lines) == 1 + 238 // 7


def test_analyze_matches_library_fit(tmp_path):
    # analyze on two written histograms fits what the library fits in
    # memory: fit_hom_model on rebin(normalize(h), 2) of the same runs
    rc = default_run_config()
    hists = []
    for pol, seed in (("parallel", 1), ("orthogonal", 2)):
        assert main(["simulate", "--seed", str(seed), "--duration-ns", "300000", "--pol", pol,
                     "--out", str(tmp_path / pol)]) == 0
        run = dataclasses.replace(rc, interferometer=dataclasses.replace(rc.interferometer, pol_mode=pol),
                                  duration=3e5, seed=seed)
        hists.append(rebin(normalize(run_replicas(run)[1], run.norm_region), 2))
    assert main(["analyze", "--par", str(tmp_path / "parallel.hist.csv"), "--orth", str(tmp_path / "orthogonal.hist.csv"),
                 "--out", str(tmp_path / "an")]) == 0
    fit = fit_hom_model(*hists, rc.emitter.gamma_spon, rc.detection, rc.interferometer.delta_t)
    got = dict(l.split(" = ") for l in (tmp_path / "an.results.txt").read_text().splitlines())
    assert float(got["rss"]) == pytest.approx(fit.rss, rel=1e-12, abs=0)
    key_of = {name: key for key, name in RESULT_FIELDS}
    for p in ("gamma_pure", "w_p", "contrast", "background"):
        assert abs(float(got[key_of[p + "_hat"]]) - getattr(fit, p + "_hat")) <= 1e-3 * getattr(fit, "stderr_" + p), p


def test_analyze_self_is_null(tmp_path, capsys):
    assert main(["simulate", "--seed", "21", "--duration-ns", "300000", "--pol", "parallel",
                 "--out", str(tmp_path / "p")]) == 0
    assert main(["analyze", "--par", str(tmp_path / "p.hist.csv"),
                 "--orth", str(tmp_path / "p.hist.csv"), "--out", str(tmp_path / "z")]) == 0
    out = capsys.readouterr().out
    assert "v0(window) 0.000" in out
    rows = (tmp_path / "z.diff.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_analyze_rejects_unnormalized(tmp_path, rng):
    from homsim import CorrelationHistogram, make_bin_edges
    from homsim.fileio import write_histogram

    raw = CorrelationHistogram(make_bin_edges(-24.99, 24.99, 0.21), rng.poisson(50.0, 238))
    write_histogram(tmp_path / "raw.csv", raw)
    assert main(["analyze", "--par", str(tmp_path / "raw.csv"),
                 "--orth", str(tmp_path / "raw.csv")]) == 3


def test_analyze_without_irf(tmp_path, capsys):
    # zero delay is a bin edge, so the model-free window is one bin wide at least
    for pol, seed in (("parallel", 31), ("orthogonal", 32)):
        assert main(["simulate", "--seed", str(seed), "--duration-ns", "300000", "--pol", pol,
                     "--out", str(tmp_path / pol)]) == 0
    h_par, h_orth = (read_histogram(tmp_path / ("%s.hist.csv" % pol)) for pol in ("parallel", "orthogonal"))
    assert main(["analyze", "--par", str(tmp_path / "parallel.hist.csv"), "--orth", str(tmp_path / "orthogonal.hist.csv"),
                 "--irf-fwhm-ns", "0", "--out", str(tmp_path / "an")]) == 0
    out = capsys.readouterr().out
    v0 = homsim.v0_from_histograms(h_par, h_orth, window=h_par.bin_width)
    assert "v0(window) %.3f" % v0 in out
    assert (tmp_path / "an.results.txt").exists()


def test_exit_codes(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["analyze", "--par", str(tmp_path / "missing.csv"),
                 "--orth", str(tmp_path / "missing.csv")]) == 3
    capsys.readouterr()
    assert main(["selftest", "--quick"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # the sentinel breaks the interference oracle in parallel and nothing else
    assert main(["selftest", "--quick", "--sentinel-sign-flip"]) == 4
    fails = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL -")]
    assert len(fails) == 1 and fails[0].startswith("FAIL - interference oracle parallel:")
    # non-finite values and removed modes are bad input, not a run or a traceback
    greedy = tmp_path / "greedy.config.txt"
    greedy.write_text("pairing = greedy\nduration = 20000.0\n")
    # a norm region that normalize would reject fails before the Monte Carlo
    norm = tmp_path / "norm.config.txt"
    norm.write_text("norm_lo = 30.0\nnorm_hi = 20.0\nduration = 20000.0\n")
    for flag, value in (("--gamma-pure", "nan"), ("--delta-t-ns", "nan"), ("--duration-ns", "inf"),
                        ("--config", str(greedy)), ("--config", str(norm))):
        assert main(["simulate", flag, value, "--out", str(tmp_path / "bad")]) == 3
    # removed keys (the pair search window and the stop delay are worked out
    # from the emitter and the MCA range; a run is one timeline, so it has no
    # replicas; the arms are equally likely, as g2_34 assumes) are unknown
    # keys, named with their line
    for key, value in (("pairing_window", "auto"), ("electronic_delay", "0.0"), ("replicas", "1"),
                       ("arm_prob_long", "0.5")):
        removed = tmp_path / ("%s.config.txt" % key)
        removed.write_text("duration = 20000.0\n%s = %s\n" % (key, value))
        capsys.readouterr()
        assert main(["simulate", "--config", str(removed), "--out", str(tmp_path / "bad")]) == 3
        err = capsys.readouterr().err
        assert "line 2" in err and key in err
    # a key given twice is refused with both of its lines, not run at the later value
    twice = tmp_path / "twice.config.txt"
    twice.write_text("gamma_pure = 0.2\nduration = 20000.0\ngamma_pure = 0.4\n")
    capsys.readouterr()
    assert main(["simulate", "--config", str(twice), "--out", str(tmp_path / "bad")]) == 3
    err = capsys.readouterr().err
    assert "gamma_pure" in err and "line 3" in err and "line 1" in err
    # asking for more memory than any machine has is one error line, not a
    # traceback: 2e12 bins are refused before any edge is built, and 1e16 ns
    # of photons (22 PiB) lie past the 47-bit address space, so the request
    # fails before a page is touched
    huge = tmp_path / "huge.config.txt"
    huge.write_text("tau_min = -1e12\ntau_max = 1e12\nbin_width = 1\n")
    for flag, value, names in (("--config", str(huge), ("tau_min", "tau_max", "bin_width")),
                               ("--duration-ns", "1e16", ())):
        capsys.readouterr()
        assert main(["simulate", flag, value, "--out", str(tmp_path / "bad")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(name in err for name in names)
    assert not list(tmp_path.glob("bad*"))
    for flag, value in (("--irf-fwhm-ns", "inf"), ("--irf-fwhm-ns", "nan")):
        assert main(["analytic", flag, value, "--out", str(tmp_path / "bad.csv")]) == 3
    # an IRF kernel of about 1.78M samples on 2,001 points, refused before it is built
    capsys.readouterr()
    assert main(["analytic", "--tau-max-ns", "1e-3", "--tau-step-ns", "1e-6", "--out", str(tmp_path / "bad.csv")]) == 3
    err = capsys.readouterr().err
    assert "--irf-fwhm-ns" in err and "--tau-step-ns" in err
    # an infinite range, a point count that overflows or one past the bound
    # (checked before any curve is built) is bad input too
    too_many = ["--tau-max-ns", "1", "--tau-step-ns", repr(1 / (MAX_BINS + 1))]
    for tau in (["--tau-max-ns", "inf"], ["--tau-max-ns", "1e300", "--tau-step-ns", "1e-300"],
                ["--tau-max-ns", "1e6", "--tau-step-ns", "1e-6"], too_many):
        assert main(["analytic", *tau, "--out", str(tmp_path / "bad.csv")]) == 3
    capsys.readouterr()
    assert main(["analytic", *too_many]) == 3
    err = capsys.readouterr().err
    assert "--tau-max-ns" in err and "--tau-step-ns" in err
    # the curves are the long-delay limit, so analytic takes no delay
    assert main(["analytic", "--delta-t-ns", "2", "--out", str(tmp_path / "bad.csv")]) == 2
    assert main(["simulate", "--replicas", "2", "--out", str(tmp_path / "bad")]) == 2
    assert not list(tmp_path.glob("bad*"))
    # a normalized column with no counts to recover its constant from, a
    # row missing outside the fit window, and blank or nan cells among the
    # normalized values are bad input, not a traceback, a fit on the wrong
    # axis or a nan result
    tau = [0.21 * k for k in range(-10, 11)]
    norm = ["1.0"] * 21
    cases = {"zeros": (tau, 0, norm), "gap": (tau[:18] + tau[19:], 100, norm),
             "holes": (tau, 100, norm[:3] + ["", "nan"] + norm[5:])}
    for name, (centers, count, cells) in cases.items():
        path = tmp_path / ("%s.hist.csv" % name)
        path.write_text("tau_ns,counts,normalized\n" + "".join("%r,%d,%s\n" % (c, count, v) for c, v in zip(centers, cells)))
        assert main(["analyze", "--par", str(path), "--orth", str(path), "--bin", "1", "--fit-window-ns", "1",
                     "--out", str(tmp_path / "bad")]) == 3
    # an IRF too wide for the fit's sub-bin grid is refused in analyze's flags
    good = tmp_path / "good.hist.csv"
    good.write_text("tau_ns,counts,normalized\n" + "".join("%r,100,1.0\n" % c for c in tau))
    capsys.readouterr()
    assert main(["analyze", "--par", str(good), "--orth", str(good), "--bin", "1", "--fit-window-ns", "1",
                 "--irf-fwhm-ns", "50", "--out", str(tmp_path / "bad")]) == 3
    err = capsys.readouterr().err
    assert "--irf-fwhm-ns" in err and "--bin" in err and "--tau-step-ns" not in err
    # a window of one bin per curve gives 2 residuals for 4 parameters, and
    # a negative delay is refused as simulate refuses it
    for flags, message in ((["--fit-window-ns", "0.1"], "at least 2 bins"), (["--delta-t-ns", "-3"], "non-negative")):
        assert main(["analyze", "--par", str(good), "--orth", str(good), "--bin", "1", *flags,
                     "--out", str(tmp_path / "bad")]) == 3
        assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("bad*"))


def test_cli_import_does_not_load_scipy():
    # homsim depends on numpy alone; the CLI must not pull scipy in
    src = str(Path(homsim.__file__).resolve().parents[1])
    code = "import sys, homsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_analyze_runs_without_scipy(tmp_path):
    for pol, seed in (("parallel", 21), ("orthogonal", 22)):
        assert main(["simulate", "--seed", str(seed), "--duration-ns", "300000", "--pol", pol,
                     "--out", str(tmp_path / pol)]) == 0
    src = str(Path(homsim.__file__).resolve().parents[1])
    code = "\n".join([
        "import sys",
        "class Block:",
        "    def find_spec(self, name, path=None, target=None):",
        "        if name.split('.')[0] == 'scipy':",
        "            raise ImportError('scipy is blocked')",
        "sys.meta_path.insert(0, Block())",
        "from homsim.cli import main",
        "sys.exit(main(sys.argv[1:]))",
    ])
    args = ["analyze", "--par", str(tmp_path / "parallel.hist.csv"), "--orth", str(tmp_path / "orthogonal.hist.csv"),
            "--out", str(tmp_path / "an")]
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code] + args, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "converged True" in proc.stdout


def test_analyze_leaves_numpy_random_unloaded(tmp_path):
    # the fit draws nothing: analyze never imports numpy.random and its
    # import chain (secrets, hashlib, hmac, ...)
    edges = homsim.make_bin_edges(-24.99, 24.99, 0.21)
    centers = 0.5 * (edges[:-1] + edges[1:])
    curves = hom_model_curves(centers, 0.21, 1 / 3.4, 0.2, 6.5, 0.7, 0.05, 4.6, 0.42)
    for pol, curve in zip(("par", "orth"), curves):
        hist = homsim.CorrelationHistogram(edges, np.rint(1000 * curve).astype(np.int64))
        write_histogram(tmp_path / ("%s.hist.csv" % pol), homsim.normalize(hist, (10.0, 20.0)))
    src = str(Path(homsim.__file__).resolve().parents[1])
    code = "import sys; from homsim.cli import main; rc = main(sys.argv[1:]); print(rc, 'numpy.random' in sys.modules)"
    args = ["analyze", "--par", str(tmp_path / "par.hist.csv"), "--orth", str(tmp_path / "orth.hist.csv"),
            "--out", str(tmp_path / "an")]
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code] + args, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_import_starts_no_blas_workers():
    # OpenBLAS sizes its thread pool once, when numpy loads: homsim loads it
    # single-threaded unless the caller set OPENBLAS_NUM_THREADS or one of
    # the two variables OpenBLAS falls back on, and leaves the environment as
    # it found it
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    src = str(Path(homsim.__file__).resolve().parents[1])
    code = "import os, %s; print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"

    def run(module, **extra):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(PYTHONPATH=src, **extra)
        proc = subprocess.run([sys.executable, "-c", code % module], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    threads_single, _ = run("numpy", OPENBLAS_NUM_THREADS="1")
    assert run("homsim") == [threads_single, "None"]
    assert run("homsim", OPENBLAS_NUM_THREADS="2")[1] == "2"
    for var in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        assert run("homsim", **{var: "2"}) == run("numpy", **{var: "2"})


def test_analyze_notes_dropped_bins_plainly(tmp_path):
    # --bin 3 and --bin-diff 5 leave 1 and 3 of the 238 bins over: one
    # plain line per truncated rebin, and no warning's source path or line
    edges = homsim.make_bin_edges(-24.99, 24.99, 0.21)
    centers = 0.5 * (edges[:-1] + edges[1:])
    curves = hom_model_curves(centers, 0.21, 1 / 3.4, 0.2, 6.5, 0.7, 0.05, 4.6, 0.42)
    for pol, curve in zip(("par", "orth"), curves):
        hist = homsim.CorrelationHistogram(edges, np.rint(1000 * curve).astype(np.int64))
        write_histogram(tmp_path / ("%s.hist.csv" % pol), homsim.normalize(hist, (10.0, 20.0)))
    src = str(Path(homsim.__file__).resolve().parents[1])
    par, orth = str(tmp_path / "par.hist.csv"), str(tmp_path / "orth.hist.csv")
    args = ["analyze", "--par", par, "--orth", orth, "--bin", "3", "--bin-diff", "5", "--out", str(tmp_path / "an")]
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "homsim.cli"] + args, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "analyze: %s: rebin by 3 dropped 1 trailing bins" % par,
        "analyze: %s: rebin by 3 dropped 1 trailing bins" % orth,
        "analyze: %s: rebin by 5 dropped 3 trailing bins" % par,
        "analyze: %s: rebin by 5 dropped 3 trailing bins" % orth,
    ]
    assert len((tmp_path / "an.diff.csv").read_text().splitlines()) == 1 + 238 // 5
