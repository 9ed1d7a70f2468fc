"""End-to-end tests of the command line interface.

Every command is compared against the library call it wraps; the CLI adds
serialization, never new numerics.
"""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import polyfock.cli as cli
from polyfock.cli import main
from polyfock.kernels import (
    KernelSpec, kernel_F, kernel_G, kernel_H, kernel_S, kernel_true_poly,
)
from polyfock.multiindex import build_index_table
from polyfock.spectral import R_F_kernel_image
from polyfock.symbols import box, constant, gamma_toeplitz, gaussian_poly, polynomial, sign
from polyfock.verify import CaseResult, VerificationReport


def _run_json(capsys, argv):
    rc = main(argv)
    assert rc == 0
    return json.loads(capsys.readouterr().out)


def _pairs_to_complex(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def test_indices_matches_table(capsys):
    payload = _run_json(capsys, ["indices", "--n", "2", "--m", "3"])
    table = build_index_table(2, 3)
    assert payload["n"] == 2 and payload["m"] == 3 and payload["d"] == table.d
    assert len(payload["indices"]) == table.d
    for entry in payload["indices"]:
        assert tuple(entry["index"]) == table.phi(entry["position"])


def test_kernel_eval_default_points_match_library(capsys):
    payload = _run_json(capsys, [
        "kernel", "eval", "--space", "F", "--n", "1", "--m", "2",
        "--alpha", "1.5", "--seed", "11",
    ])
    z = _pairs_to_complex(payload["points"]["z"])
    w = _pairs_to_complex(payload["points"]["w"])
    expected = kernel_F(KernelSpec(1, 2, 1.5), z, w)
    assert_allclose(_pairs_to_complex(payload["values"]), expected, rtol=1e-14)

    # the sample is seed deterministic
    again = _run_json(capsys, [
        "kernel", "eval", "--space", "F", "--n", "1", "--m", "2",
        "--alpha", "1.5", "--seed", "11",
    ])
    assert again == payload


def test_kernel_eval_points_file(tmp_path, capsys):
    rng = np.random.default_rng(2)
    pts = {key: rng.uniform(-1, 1, 5).tolist() for key in ("x", "y", "u", "v")}
    path = tmp_path / "points.json"
    path.write_text(json.dumps(pts))
    payload = _run_json(capsys, [
        "kernel", "eval", "--space", "H", "--n", "1", "--m", "3",
        "--points", str(path),
    ])
    expected = kernel_H(KernelSpec(1, 3),
                        np.asarray(pts["x"])[:, None], np.asarray(pts["y"])[:, None],
                        np.asarray(pts["u"])[:, None], np.asarray(pts["v"])[:, None])
    assert_allclose(_pairs_to_complex(payload["values"]), expected, rtol=1e-14)


def test_kernel_eval_complex_points_file(tmp_path, capsys):
    # n = 1 convenience shape (count, 2) for [re, im]
    z = [[0.3, -0.2], [0.1, 0.4]]
    w = [[-0.5, 0.1], [0.2, 0.2]]
    path = tmp_path / "zw.json"
    path.write_text(json.dumps({"z": z, "w": w}))
    payload = _run_json(capsys, [
        "kernel", "eval", "--space", "S", "--n", "1", "--m", "2",
        "--alpha", "1.2800000000000002", "--points", str(path),
    ])
    zc = _pairs_to_complex(z)[:, None]
    wc = _pairs_to_complex(w)[:, None]
    assert_allclose(_pairs_to_complex(payload["values"]),
                    kernel_S(KernelSpec(1, 2, 2 * 0.8**2), zc, wc), rtol=1e-14)
    assert payload["alpha"] == 2 * 0.8**2


def test_kernel_eval_true_poly_default_type(capsys):
    payload = _run_json(capsys, [
        "kernel", "eval", "--space", "true", "--n", "2", "--m", "2", "--seed", "3",
    ])
    z = _pairs_to_complex(payload["points"]["z"])
    w = _pairs_to_complex(payload["points"]["w"])
    expected = kernel_true_poly(KernelSpec(2, 2, 1.0), [2, 2], z, w)
    assert_allclose(_pairs_to_complex(payload["values"]), expected, rtol=1e-14)
    assert payload["beta"] == [2, 2]


def _library_values(space, spec, points):
    """The library call behind `kernel eval --space <space>` with default --beta."""
    if space == "H":
        return kernel_H(spec, points["x"], points["y"], points["u"], points["v"])
    if space == "G":
        return kernel_G(spec, points["x"], points["y"], points["u"], points["v"])
    if space == "true":
        return kernel_true_poly(spec, [spec.m] * spec.n, points["z"], points["w"])
    return {"F": kernel_F, "S": kernel_S}[space](spec, points["z"], points["w"])


@pytest.mark.parametrize("source", ["default", "file"])
@pytest.mark.parametrize("space", ["F", "H", "G", "S", "true"])
def test_kernel_eval_every_space_matches_library_exactly(space, source, tmp_path, capsys):
    n, m, alpha = 2, 3, 1.3
    argv = ["kernel", "eval", "--space", space, "--n", str(n), "--m", str(m)]
    complex_space = space in ("F", "S", "true")
    if complex_space:
        argv += ["--alpha", str(alpha)]
    if source == "default":
        argv += ["--seed", "5"]
    else:
        rng = np.random.default_rng(4)
        keys = ("z", "w") if complex_space else ("x", "y", "u", "v")
        shape = (6, n, 2) if complex_space else (6, n)
        path = tmp_path / "points.json"
        path.write_text(json.dumps({key: rng.uniform(-1, 1, shape).tolist() for key in keys}))
        argv += ["--points", str(path)]
    payload = _run_json(capsys, argv)
    points = {key: _pairs_to_complex(val) if complex_space else np.asarray(val, dtype=float)
              for key, val in payload["points"].items()}
    if source == "file":
        assert payload["points"] == json.loads(path.read_text())
    expected = _library_values(space, KernelSpec(n, m, alpha), points)
    values = np.asarray(payload["values"], dtype=float)
    assert np.array_equal(values[..., 0], expected.real)
    assert np.array_equal(values[..., 1], expected.imag)
    assert payload["space"] == space and payload["n"] == n and payload["m"] == m
    assert ("alpha" in payload) == complex_space
    assert payload.get("beta") == ([m] * n if space == "true" else None)


@pytest.mark.parametrize("z, m", [([[float("nan"), 0.0]], 2), ([[27.0, 0.0]], 3)],
                         ids=["nan-point", "overflow"])
def test_kernel_eval_non_finite_payload_exits_2(z, m, tmp_path, capsys):
    # a NaN point is copied into the payload; at z = w = 27, exp(alpha |z|^2) overflows
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"z": z, "w": z}))
    out = tmp_path / "values.json"
    with np.errstate(all="ignore"), pytest.raises(SystemExit) as err:
        main(["kernel", "eval", "--space", "F", "--n", "1", "--m", str(m),
              "--points", str(path), "--out", str(out)])
    assert err.value.code == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "polyfock", "indices", "--n", "1", "--m", "2"],
                          capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["d"] == 2


def test_fiber_matches_library(capsys):
    payload = _run_json(capsys, [
        "fiber", "--n", "1", "--m", "3", "--alpha", "1.2",
        "--xi", "0.7", "--input", "kernel:iy=0.4",
    ])
    fiber = R_F_kernel_image(KernelSpec(1, 3, 1.2), [0.4], [0.7])
    assert_allclose(_pairs_to_complex(payload["components"]),
                    fiber.components, rtol=1e-13)
    assert payload["xi"] == [0.7]


@pytest.mark.parametrize("xi", ["nan", "inf", "-inf"])
def test_fiber_rejects_non_finite_frequency(xi, capsys):
    with pytest.raises(SystemExit) as err:
        main(["fiber", "--n", "1", "--m", "2", f"--xi={xi}", "--input", "kernel:iy=0.3"])
    assert err.value.code == 2
    assert "frequency must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--m", "49"], "m = 49 exceeds the order 48"),
    (["--m", "11", "--order", "10"], "m = 11 exceeds the order 10"),
])
def test_symbol_gamma_refuses_m_above_the_order(argv, message, capsys):
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as err:
            main(["symbol", "gamma", "--g", "const:1", "--xi-grid", "0:0:1", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize("n, g", [(1, "sign"), (1, "box:-1,1"), (2, "box:-1,1"), (1, "box:-inf,inf")])
def test_symbol_gamma_refuses_an_order_it_would_not_read(n, g, capsys):
    # jump axes are closed form; --order is the Gauss-Hermite order of a smooth axis
    with pytest.raises(SystemExit) as err:
        main(["symbol", "gamma", "--n", str(n), "--m", "2", "--g", g, "--xi-grid", "0:0:1",
              "--order", "16"])
    assert err.value.code == 2
    assert f"--order is the Gauss-Hermite order of an axis without jumps, and --g {g} jumps" \
        in capsys.readouterr().err


def test_symbol_gamma_reads_the_order_of_a_smooth_axis(capsys):
    # sign on axis 0 of n = 2 leaves axis 1 smooth, so --order applies there
    payload = _run_json(capsys, ["symbol", "gamma", "--n", "2", "--m", "2", "--g", "sign",
                                 "--xi-grid", "0.5:0.5:1", "--order", "16"])
    expected = gamma_toeplitz(build_index_table(2, 2), sign(0, n=2), [0.5, 0.5], order=16)
    np.testing.assert_array_equal(_pairs_to_complex(payload["matrices"][0]), expected.entries)


def test_symbol_gamma_grid_matches_library(capsys):
    payload = _run_json(capsys, [
        "symbol", "gamma", "--n", "1", "--m", "2",
        "--g", "poly:0,1", "--xi-grid", "-2:2:5",
    ])
    assert payload["xi"] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    table = build_index_table(1, 2)
    g = polynomial([0.0, 1.0])
    for value, matrix in zip(payload["xi"], payload["matrices"]):
        expected = gamma_toeplitz(table, g, [value]).entries
        assert_allclose(_pairs_to_complex(matrix), expected, atol=1e-14)


@pytest.mark.parametrize("text, g", [
    ("box:-1,1", box(-1, 1)),
    ("gausspoly:1,0,1;0.2;0.8", gaussian_poly([1, 0, 1], 0.2, 0.8)),
])
def test_symbol_mini_language_matches_library_bit_for_bit(text, g, capsys):
    payload = _run_json(capsys, ["symbol", "gamma", "--n", "1", "--m", "2",
                                 "--g", text, "--xi-grid", "-2:2:5"])
    assert payload["g"] == text
    table = build_index_table(1, 2)
    for value, matrix in zip(payload["xi"], payload["matrices"]):
        expected = gamma_toeplitz(table, g, [value]).entries
        np.testing.assert_array_equal(_pairs_to_complex(matrix), expected)


# --g text -> the library symbol at dimension n, as the CLI builds it; the
# flat coefficient lists of poly and gausspoly are defined at n = 1 only
GAMMA_SYMBOLS = {
    "const:1": lambda n: constant(1.0, n=n),
    "poly:0,1": lambda n: polynomial([0.0, 1.0]),
    "gausspoly:1,0,1;0.2;1.1": lambda n: gaussian_poly([1.0, 0.0, 1.0], 0.2, 1.1),
    "sign:0": lambda n: sign(0, n=n),
    "box:-1,1": lambda n: box(-1.0, 1.0, n=n),
}


@pytest.mark.parametrize("text, n", [(text, n) for text in GAMMA_SYMBOLS for n in (1, 2, 3)
                                     if n == 1 or not text.startswith(("poly", "gausspoly"))])
def test_symbol_gamma_json_matches_per_xi_library_calls_bit_for_bit(text, n, capsys):
    # the CLI makes one gamma call over the whole grid; every matrix must
    # still equal the one-point call at its xi = (v, ..., v)
    m = 3 if n < 3 else 2
    payload = _run_json(capsys, ["symbol", "gamma", "--n", str(n), "--m", str(m), "--g", text,
                                 "--xi-grid", "-8:8:64"])
    table, g = build_index_table(n, m), GAMMA_SYMBOLS[text](n)
    assert len(payload["matrices"]) == 64 and payload["d"] == table.d
    for value, matrix in zip(payload["xi"], payload["matrices"]):
        entries = gamma_toeplitz(table, g, np.full(n, value)).entries
        got = np.asarray(matrix)
        assert np.array_equal(got[..., 0], entries.real)
        assert np.array_equal(got[..., 1], entries.imag)


def _csv_per_xi(n, m, g, values):
    """The CSV of `symbol gamma`, written from one library call per xi."""
    table = build_index_table(n, m)
    d = table.d
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["xi"] + [f"g_{r}{s}_{part}" for r in range(d) for s in range(d)
                              for part in ("re", "im")])
    for value in values:
        entries = gamma_toeplitz(table, g, np.full(n, value)).entries
        writer.writerow([repr(value)] + [repr(float(x)) for z in entries.ravel()
                                         for x in (z.real, z.imag)])
    return buf.getvalue()


@pytest.mark.parametrize("n, m, text", [(1, 4, "const:1"), (1, 2, "poly:0,1"), (2, 3, "sign:0"),
                                        (2, 3, "box:-1,1"), (3, 2, "sign:0")])
def test_symbol_gamma_csv_is_the_per_xi_csv_byte_for_byte(n, m, text, capsys):
    rc = main(["symbol", "gamma", "--n", str(n), "--m", str(m), "--g", text,
               "--xi-grid", "-8:8:64", "--format", "csv"])
    assert rc == 0
    expected = _csv_per_xi(n, m, GAMMA_SYMBOLS[text](n), np.linspace(-8.0, 8.0, 64).tolist())
    assert capsys.readouterr().out == expected


PAYLOAD_COMMANDS = {
    "indices": (["indices", "--n", "2", "--m", "3"], cli._build_indices),
    "kernel-eval": (["kernel", "eval", "--space", "true", "--n", "2", "--m", "2", "--seed", "3"],
                    cli._build_kernel),
    "fiber": (["fiber", "--n", "1", "--m", "3", "--xi", "0.7", "--input", "kernel:iy=0.4"],
              cli._build_fiber),
    "symbol-gamma": (["symbol", "gamma", "--n", "2", "--m", "3", "--g", "sign",
                      "--xi-grid=-8:8:5"], cli._build_symbol),
}


@pytest.mark.parametrize("argv, builder", PAYLOAD_COMMANDS.values(), ids=PAYLOAD_COMMANDS)
def test_payload_json_has_one_top_level_key_per_line(argv, builder, capsys):
    # the same object as json.dumps(payload, indent=2) wrote, one key per line
    payload = builder(cli.build_parser().parse_args(argv))
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert json.loads(text) == json.loads(json.dumps(payload, indent=2))
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}" and len(lines) == len(payload) + 2
    assert [json.loads("{" + line.rstrip(",") + "}") for line in lines[1:-1]] \
        == [{key: value} for key, value in json.loads(text).items()]


def test_symbol_gamma_refuses_m_above_the_cap(capsys):
    # psi_0 underflows past |t| ~ 38.6; every symbol takes m <= 128
    with pytest.raises(SystemExit) as err:
        main(["symbol", "gamma", "--n", "1", "--m", "129", "--g", "sign"])
    assert err.value.code == 2
    assert "m = 129 exceeds 128, the largest m of a matrix symbol" in capsys.readouterr().err


@pytest.mark.parametrize("g", ["poly:0,1", "gausspoly:1,0,1;0.2;1.1"])
def test_flat_coefficient_lists_exit_2_at_n_above_1(g, capsys):
    # the mini-language's poly and gausspoly lists are the n = 1 form of the library's terms
    with pytest.raises(SystemExit) as err:
        main(["symbol", "gamma", "--n", "2", "--m", "2", "--g", g])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: flat coefficient lists are only defined for n = 1\n"


def test_the_shared_parser_gives_each_call_its_own_namespace(capsys):
    assert cli.build_parser() is cli.build_parser()
    first = cli.build_parser().parse_args(["symbol", "gamma", "--n", "2", "--m", "3", "--g", "sign"])
    second = cli.build_parser().parse_args(["indices", "--n", "3", "--m", "2", "--out", "x.json"])
    assert first is not second
    assert (first.command, first.n, first.m, first.g, first.out) == ("symbol", 2, 3, "sign", None)
    assert (second.command, second.n, second.m, second.out) == ("indices", 3, 2, "x.json")
    assert not hasattr(second, "g")
    # a usage error leaves the next call as it would have been
    expected = _run_json(capsys, ["symbol", "gamma", "--n", "1", "--m", "2", "--g", "box:-1,1"])
    with pytest.raises(SystemExit) as err:
        main(["symbol", "gamma", "--n", "1", "--m", "2", "--g", "sign", "--format", "xml"])
    assert err.value.code == 2
    capsys.readouterr()
    assert _run_json(capsys, ["symbol", "gamma", "--n", "1", "--m", "2", "--g", "box:-1,1"]) == expected
    again = cli.build_parser().parse_args(["symbol", "gamma", "--n", "2", "--m", "3", "--g", "sign"])
    assert vars(again) == vars(first)


def test_symbol_gamma_csv_output(capsys):
    rc = main(["symbol", "gamma", "--n", "1", "--m", "2", "--g", "sign",
               "--xi-grid", "0:1:3", "--format", "csv"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][0] == "xi"
    assert len(rows) == 4  # header + 3 grid points
    assert len(rows[1]) == 1 + 2 * 4  # d = 2, so 4 complex entries
    # first grid point is xi = 0, where the sign symbol has zero diagonal
    assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-12)


def test_out_writes_file(tmp_path, capsys):
    out = tmp_path / "indices.json"
    rc = main(["indices", "--n", "1", "--m", "4", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["d"] == 4


def test_out_unwritable_path_returns_1(tmp_path, capsys):
    rc = main(["indices", "--n", "1", "--m", "2",
               "--out", str(tmp_path / "missing" / "x.json")])
    assert rc == 1
    assert "could not write" in capsys.readouterr().err


def test_missing_points_file_returns_1(capsys):
    rc = main(["kernel", "eval", "--space", "F", "--n", "1", "--m", "1",
               "--points", "/no/such/points.json"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["kernel", "eval", "--space", "Q", "--n", "1", "--m", "1"])
    assert err.value.code == 2

    # S takes its scale from --alpha; --sigma is not an option
    with pytest.raises(SystemExit) as err:
        main(["kernel", "eval", "--space", "S", "--n", "1", "--m", "1", "--sigma", "0.8"])
    assert err.value.code == 2

    # --format is an option of `symbol gamma` only
    with pytest.raises(SystemExit) as err:
        main(["kernel", "eval", "--space", "F", "--n", "1", "--m", "1",
              "--format", "csv"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["indices", "--n", "1", "--m", "2", "--format", "json"])
    assert err.value.code == 2

    with pytest.raises(SystemExit) as err:
        main(["symbol", "gamma", "--n", "1", "--m", "2", "--g", "sign",
              "--xi-grid", "0:1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["symbol", "gamma", "--n", "1", "--m", "2", "--g", "sign",
              "--xi-grid", "nan:1:2"])
    assert err.value.code == 2

    # --beta is read by --space true only; elsewhere it is refused, not dropped
    for space in ("F", "H", "G", "S"):
        with pytest.raises(SystemExit) as err:
            main(["kernel", "eval", "--space", space, "--n", "1", "--m", "2", "--beta", "9,9,9"])
        assert err.value.code == 2

    # --seed draws the default points and --alpha enters F, S and true only;
    # an option the command would not read is refused and named, not dropped
    complex_points = tmp_path / "zw.json"
    complex_points.write_text(json.dumps({"z": [[0.1, 0.2]], "w": [[0.3, -0.4]]}))
    real_points = tmp_path / "xyuv.json"
    real_points.write_text(json.dumps({key: [0.1] for key in ("x", "y", "u", "v")}))
    for option, argv in (
            ("--seed", ["--space", "F", "--points", str(complex_points), "--seed", "1"]),
            ("--seed", ["--space", "H", "--points", str(real_points), "--seed", "99"]),
            ("--alpha", ["--space", "H", "--alpha", "2.0"]),
            ("--alpha", ["--space", "G", "--alpha", "1.0"])):
        with pytest.raises(SystemExit) as err:
            main(["kernel", "eval", "--n", "1", "--m", "2", *argv])
        assert err.value.code == 2, argv
        assert option in capsys.readouterr().err, argv

    # lengths of xi, iy and beta are checked by the library calls
    for argv in (["fiber", "--n", "2", "--xi", "0.5", "--input", "kernel:iy=0.1,0.2"],
                 ["fiber", "--n", "1", "--input", "kernel:iy=0.1,0.2", "--xi", "0.5"],
                 ["kernel", "eval", "--space", "true", "--n", "2", "--beta", "1"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    # the fiber image is closed form, so it takes no quadrature order
    with pytest.raises(SystemExit) as err:
        main(["fiber", "--n", "1", "--m", "2", "--xi", "0.5",
              "--input", "kernel:iy=0.3", "--order", "8"])
    assert err.value.code == 2

    # `emit X --out FILE` is spelled `X --out FILE`
    with pytest.raises(SystemExit) as err:
        main(["emit", "indices", "--n", "1", "--m", "4", "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2

    # malformed points file
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"z": [[0.1, 0.2]]}))
    with pytest.raises(SystemExit) as err:
        main(["kernel", "eval", "--space", "F", "--n", "1", "--m", "1",
              "--points", str(path)])
    assert err.value.code == 2

    # a points file with an object entry is refused by a TypeError
    path.write_text(json.dumps({"z": [[{"re": 1}]], "w": [[[0.1, 0.2]]]}))
    with pytest.raises(SystemExit) as err:
        main(["kernel", "eval", "--space", "F", "--n", "1", "--m", "1",
              "--points", str(path)])
    assert err.value.code == 2

    # malformed or unknown symbols
    for text in ("box:1", "gausspoly:1;0.2", "poly:", "wave:1"):
        with pytest.raises(SystemExit) as err:
            main(["symbol", "gamma", "--n", "1", "--m", "2", "--g", text, "--xi-grid", "0:1:2"])
        assert err.value.code == 2

    # a suite refuses an option it does not read rather than dropping it
    for argv in (["verify", "laguerre", "--order", "5"],
                 ["verify", "fourier-laguerre", "--n-max", "3", "--m-max", "2"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    # a non-finite symbol coefficient would write NaN tokens, which are not JSON
    with pytest.raises(SystemExit) as err:
        main(["symbol", "gamma", "--n", "1", "--m", "2", "--g", "const:nan",
              "--xi-grid", "0:1:2"])
    assert err.value.code == 2


def test_verify_command_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "laguerre", "--n-max", "1", "--p-max", "2",
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "FAIL" not in stdout
    report = json.loads(out.read_text())
    assert report["suite"] == "laguerre"
    assert report["passed"] is True
    assert all(case["passed"] for case in report["cases"])


def test_verify_command_failure_exit_code(monkeypatch, capsys):
    failing = VerificationReport(
        suite="sum-products", passed=False,
        cases=(CaseResult(id="forced", max_error=1.0, tolerance=1e-11,
                          passed=False),),
        elapsed_seconds=0.0, params={"seed": 7},
    )
    monkeypatch.setattr(cli, "run_suite", lambda name, config: failing)
    rc = main(["verify", "sum-products"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_case_lines_leave_out_case_timing(monkeypatch, capsys):
    report = VerificationReport(
        suite="laguerre", passed=True,
        cases=(CaseResult(id="decomposition n=1 p=00", max_error=0.0, tolerance=0.0,
                          passed=True, elapsed_seconds=1.25),),
        elapsed_seconds=1.3, params={"seed": 7},
    )
    monkeypatch.setattr(cli, "run_suite", lambda name, config: report)
    assert main(["verify", "laguerre"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "suite laguerre  (seed=7, 1.3s)",
        "  PASS  decomposition n=1 p=00                     max_error=0.000e+00  tol=0.0e+00",
        "suite laguerre: PASS (1 cases)",
    ]
