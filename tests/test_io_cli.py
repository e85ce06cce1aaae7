import json
import math

import numpy as np
import pytest

from conftest import max_abs, random_series, random_signal
from volterra import io
from volterra.errors import ContractViolation
from volterra.cli import main
from volterra.evaluation import eval_time
from volterra.kernels import VolterraSeries, symmetrize_plain, symmetrize_weighted, zero_pad
from volterra.morphisms import catalog
from volterra.tfd import PolynomialPhase, chirp


def test_signal_csv_round_trip(tmp_path, rng):
    s = random_signal(16, rng)
    path = tmp_path / "s.csv"
    io.write_signal_csv(path, s)
    assert np.array_equal(io.read_signal_csv(path), s)


def test_series_round_trip_bit_exact(tmp_path, rng):
    series = random_series(3, 3, rng, constant=0.25 - 1.5j)
    path = tmp_path / "v.vk"
    io.save_series(path, series)
    loaded = io.load_series(path)
    assert set(loaded.kernels) == set(series.kernels)
    for index, kernel in series.kernels.items():
        padded = zero_pad(kernel, series.memory) if kernel.order else kernel
        assert np.array_equal(loaded.kernels[index].data, padded.data)


def test_morphism_round_trip_bit_exact(tmp_path, rng):
    V = random_series(2, 3, rng)
    _, m = catalog("identity", V, 12)
    path = tmp_path / "m.vm"
    io.save_morphism(path, m)
    loaded = io.load_morphism(path)
    assert loaded.index_map == m.index_map
    for i in m.index_map:
        assert np.array_equal(loaded.matrices[i], m.matrices[i])
        assert np.array_equal(loaded.masks[i], m.masks[i])


def test_grid_csv_real_and_complex(tmp_path, rng):
    real_grid = rng.standard_normal((4, 6))
    path = tmp_path / "g.csv"
    io.write_grid_csv(path, real_grid)
    assert np.allclose(io.read_grid_csv(path), real_grid, atol=0)
    cplx = real_grid + 1j * rng.standard_normal((4, 6))
    io.write_grid_csv(path, cplx)
    raw = io.read_grid_csv(path)
    assert raw.shape == (4, 12)  # interleaved re, im columns


def test_pgm_header_and_payload(tmp_path, rng):
    grid = rng.random((5, 9))
    path = tmp_path / "g.pgm"
    io.write_pgm(path, grid)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n9 5\n255\n")
    pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
    assert pixels.size == 45 and pixels.max() == 255


def write_series(tmp_path, name, series):
    path = tmp_path / name
    io.save_series(path, series)
    return str(path)


def test_cli_eval(tmp_path, rng, capsys):
    series = random_series(2, 3, rng)
    s = random_signal(12, rng)
    spath = tmp_path / "s.csv"
    io.write_signal_csv(spath, s)
    vk = write_series(tmp_path, "v.vk", series)
    out = tmp_path / "y.csv"
    code = main(["eval", "--series", vk, "--signal", str(spath), "--out", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["length"] == 12
    assert max_abs(io.read_signal_csv(out) - eval_time(series, s)) < 1e-12


def test_cli_compose_associativity_triple(tmp_path, rng, capsys):
    A = random_series(2, 2, rng)
    B = random_series(2, 2, rng)
    C = random_series(2, 2, rng)
    binds = [
        "--bind", f"A={write_series(tmp_path, 'a.vk', A)}",
        "--bind", f"B={write_series(tmp_path, 'b.vk', B)}",
        "--bind", f"C={write_series(tmp_path, 'c.vk', C)}",
    ]
    left, right = tmp_path / "l.vk", tmp_path / "r.vk"
    assert main(["compose", "--expr", "(C <| B) <| A", *binds, "--out", str(left)]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["compose", "--expr", "C <| (B <| A)", *binds, "--out", str(right)]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["truncations"] and second["truncations"]  # order 8 > default cap 4
    lhs, rhs = io.load_series(left), io.load_series(right)
    for j in set(lhs.orders()) | set(rhs.orders()):
        lk, rk = lhs.kernel_of_order(j), rhs.kernel_of_order(j)
        M = max(k.memory for k in (lk, rk) if k is not None)
        ld = zero_pad(lk, M).data if lk else 0
        rd = zero_pad(rk, M).data if rk else 0
        assert max_abs(ld - rd) <= 1e-8


def test_cli_compose_reports_only_reachable_dropped_orders(tmp_path, rng, capsys):
    A = VolterraSeries({2: random_series(2, 2, rng).kernels[2]})
    a = write_series(tmp_path, "a.vk", A)
    out = tmp_path / "o.vk"
    code = main(
        ["compose", "--expr", "A <| A", "--bind", f"A={a}", "--out", str(out), "--max-order", "2"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["orders"] == []
    assert payload["truncations"] == [{"operation": "compose", "dropped_orders": [4], "cap": 2}]


def test_cli_compose_unbound_name_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o.vk"
    code = main(["compose", "--expr", "A + B", "--out", str(out)])
    assert code == 2


def test_cli_compose_negative_max_order_is_error(tmp_path, rng, capsys):
    a = write_series(tmp_path, "a.vk", random_series(2, 2, rng))
    out = tmp_path / "o.vk"
    code = main(
        ["compose", "--expr", "A <| A", "--bind", f"A={a}", "--out", str(out), "--max-order", "-2"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and "max_order" in captured.err


def test_cli_morph_check_naturality(tmp_path, rng, capsys):
    V = random_series(2, 3, rng)
    W, m = catalog("autoconvolution", V, 12)
    vk = write_series(tmp_path, "v.vk", V)
    wk = write_series(tmp_path, "w.vk", W)
    mfile = tmp_path / "m.vm"
    io.save_morphism(mfile, m)
    code = main(
        [
            "morph", "--check-naturality",
            "--morphism", str(mfile), "--source", vk, "--target", wk,
            "--trials", "20",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["max_residual"] <= 1e-9


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_morph_check_naturality_needs_a_trial(trials, tmp_path, rng, capsys):
    V = random_series(2, 3, rng)
    W, m = catalog("autoconvolution", V, 12)
    vk = write_series(tmp_path, "v.vk", V)
    wk = write_series(tmp_path, "w.vk", W)
    mfile = tmp_path / "m.vm"
    io.save_morphism(mfile, m)
    code = main(
        [
            "morph", "--check-naturality",
            "--morphism", str(mfile), "--source", vk, "--target", wk,
            "--trials", trials,
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "trials" in captured.err


def test_cli_morph_apply(tmp_path, rng, capsys):
    V = random_series(2, 3, rng)
    W, m = catalog("trivial", V, 12)
    vk = write_series(tmp_path, "v.vk", V)
    wk = write_series(tmp_path, "w.vk", W)
    mfile = tmp_path / "m.vm"
    io.save_morphism(mfile, m)
    spath = tmp_path / "s.csv"
    io.write_signal_csv(spath, random_signal(12, rng))
    out = tmp_path / "o.csv"
    code = main(
        [
            "morph", "--morphism", str(mfile), "--source", vk, "--target", wk,
            "--signal", str(spath), "--out", str(out),
        ]
    )
    assert code == 0
    assert io.read_signal_csv(out).size == 12


@pytest.mark.filterwarnings("ignore:wvd. input is not analytic")
def test_cli_tfd_wvd_writes_grid_and_pgm(tmp_path, capsys):
    L = 64
    ph = PolynomialPhase((0.0, 2 * np.pi * 0.1, 2 * np.pi * 0.05 / L))
    spath = tmp_path / "chirp.csv"
    io.write_signal_csv(spath, chirp(ph, L))
    out, pgm = tmp_path / "w.csv", tmp_path / "w.pgm"
    code = main(
        ["tfd", "--in", str(spath), "--method", "wvd", "--out", str(out), "--pgm", str(pgm)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shape"] == [L, L // 2]
    assert io.read_grid_csv(out).shape == (L, L // 2)
    assert pgm.read_bytes().startswith(b"P5\n")


def test_cli_tfd_pwvd_k6_needs_lambda3(tmp_path, capsys):
    L = 64
    spath = tmp_path / "s.csv"
    io.write_signal_csv(spath, np.exp(2j * np.pi * 9 * np.arange(L) / L))
    out = tmp_path / "p.csv"
    code = main(["tfd", "--in", str(spath), "--method", "pwvd", "--k", "6", "--out", str(out)])
    assert code == 2
    code = main(
        ["tfd", "--in", str(spath), "--method", "pwvd", "--k", "6", "--lambda3", "0.62",
         "--out", str(out)]
    )
    assert code == 0


def test_cli_lambdas_domain_error(capsys):
    assert main(["lambdas", "--k", "6", "--lambda3", "0.4"]) == 1
    assert main(["lambdas", "--k", "6", "--lambda3", "0.62"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_lambdas_non_finite_is_error(value, capsys):
    assert main(["lambdas", "--k", "6", "--lambda3", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_info_reports_symmetry(tmp_path, rng, capsys):
    from volterra.kernels import symmetrize_plain

    series = random_series(2, 3, rng).map_kernels(symmetrize_plain)
    vk = write_series(tmp_path, "v.vk", series)
    assert main(["info", "--series", vk]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["orders"] == [1, 2]
    assert all(entry["symmetric"] for entry in payload["kernels"])


def test_cli_missing_file_is_usage_error(tmp_path):
    assert main(["info", "--series", str(tmp_path / "missing.vk")]) == 2


def test_cli_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


GOOD_KERNEL = {"index": 1, "order": 2, "data": [[1.0, 0.0]] * 4}
MALFORMED_SERIES = {
    "no kernels": {"version": 1, "memory": 2},
    "no memory": {"version": 1, "kernels": [GOOD_KERNEL]},
    "memory not int": {"version": 1, "memory": "2", "kernels": [GOOD_KERNEL]},
    "kernels not list": {"version": 1, "memory": 2, "kernels": GOOD_KERNEL},
    "short data": {"version": 1, "memory": 2, "kernels": [{**GOOD_KERNEL, "data": [[1, 0]]}]},
    "long data": {"version": 1, "memory": 2, "kernels": [{**GOOD_KERNEL, "data": [[1, 0]] * 5}]},
    "data not list": {"version": 1, "memory": 2, "kernels": [{**GOOD_KERNEL, "data": 3.0}]},
    "data not pairs": {"version": 1, "memory": 2, "kernels": [{**GOOD_KERNEL, "data": [1, 2, 3, 4]}]},
    "data strings": {"version": 1, "memory": 2, "kernels": [{**GOOD_KERNEL, "data": [["a", "b"]] * 4}]},
    "no order": {"version": 1, "memory": 2, "kernels": [{"index": 1, "data": [[1, 0]] * 4}]},
    "no index": {"version": 1, "memory": 2, "kernels": [{"order": 2, "data": [[1, 0]] * 4}]},
    "entry not object": {"version": 1, "memory": 2, "kernels": [[1, 2]]},
    "order past numpy's axes": {"version": 1, "memory": 1, "kernels": [{**GOOD_KERNEL, "order": 100, "data": [[1, 0]]}]},
    "order 20000": {"version": 1, "memory": 2, "kernels": [{**GOOD_KERNEL, "order": 20000}]},
    "negative memory": {"version": 1, "memory": -2, "kernels": [GOOD_KERNEL]},
    "bool in data": {"version": 1, "memory": 2, "kernels": [{**GOOD_KERNEL, "data": [[True, 0]] * 4}]},
    "version true": {"version": True, "memory": 2, "kernels": [GOOD_KERNEL]},
    "version 1.0": {"version": 1.0, "memory": 2, "kernels": [GOOD_KERNEL]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SERIES))
def test_load_series_rejects_malformed_manifest(case, tmp_path, capsys):
    path = tmp_path / "bad.vk"
    path.write_text(json.dumps(MALFORMED_SERIES[case]))
    with pytest.raises(ContractViolation, match="bad.vk"):
        io.load_series(path)
    assert main(["info", "--series", str(path)]) == 1
    assert_one_error_line(path, capsys)


def test_cli_info_reads_an_order_64_kernel(tmp_path, capsys):
    # numpy's 64 axes: the orbit table of {0}^64 must not build an index grid of 65
    path = tmp_path / "order64.vk"
    path.write_text(json.dumps({"version": 1, "memory": 1, "kernels": [{**GOOD_KERNEL, "order": 64, "data": [[2.0, 1.0]]}]}))
    assert main(["info", "--series", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["symmetric"] for entry in payload["kernels"]] == [True]
    kernel = io.load_series(path).kernels[1]
    assert symmetrize_plain(kernel).data == kernel.data
    assert symmetrize_weighted(kernel).data == kernel.data * float(math.factorial(64))


GOOD_COMPONENT = {
    "source": 1, "target": 1, "matrix": [[1]], "mask_order": 1, "mask": [[1.0, 0.0]] * 4,
}
MALFORMED_MORPHISMS = {
    "no components": {"version": 1, "length": 4},
    "no length": {"version": 1, "components": [GOOD_COMPONENT]},
    "null length for a mask": {"version": 1, "length": None, "components": [GOOD_COMPONENT]},
    "short mask": {"version": 1, "length": 4, "components": [{**GOOD_COMPONENT, "mask": [[1, 0]]}]},
    "mask not list": {"version": 1, "length": 4, "components": [{**GOOD_COMPONENT, "mask": "x"}]},
    "ragged matrix": {"version": 1, "length": 4, "components": [{**GOOD_COMPONENT, "matrix": [[1], [1, 0]]}]},
    "no target": {"version": 1, "length": 4, "components": [{"source": 1, "matrix": [[1]]}]},
    "matrix 1e308": {"version": 1, "length": 4, "components": [{**GOOD_COMPONENT, "matrix": [[1e308]]}]},
    "matrix 1.5": {"version": 1, "length": 4, "components": [{**GOOD_COMPONENT, "matrix": [[1.5]]}]},
    "matrix true": {"version": 1, "length": 4, "components": [{**GOOD_COMPONENT, "matrix": [[True]]}]},
    "matrix string": {"version": 1, "length": 4, "components": [{**GOOD_COMPONENT, "matrix": [["1"]]}]},
    "3-d matrix": {"version": 1, "length": 4, "components": [{**GOOD_COMPONENT, "matrix": [[[1]]]}]},
    "mask order 20000": {"version": 1, "length": 4, "components": [{**GOOD_COMPONENT, "mask_order": 20000}]},
    "bool in mask": {"version": 1, "length": 4, "components": [{**GOOD_COMPONENT, "mask": [[1, False]] * 4}]},
    "version true": {"version": True, "length": 4, "components": [GOOD_COMPONENT]},
    "version 1.0": {"version": 1.0, "length": 4, "components": [GOOD_COMPONENT]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MORPHISMS))
def test_load_morphism_rejects_malformed_manifest(case, tmp_path):
    path = tmp_path / "bad.vm"
    path.write_text(json.dumps(MALFORMED_MORPHISMS[case]))
    with pytest.raises(ContractViolation, match="bad.vm"):
        io.load_morphism(path)


def cli_argv(command, bad, tmp_path, rng):
    """Arguments that make ``command`` read the file ``bad`` beside a good series."""
    good = write_series(tmp_path, "v.vk", random_series(1, 2, rng))
    return {
        "info": ["info", "--series", str(bad)],
        "morph": ["morph", "--check-naturality", "--morphism", str(bad), "--source", good, "--target", good],
        "eval": ["eval", "--series", good, "--signal", str(bad), "--out", str(tmp_path / "out.csv")],
    }[command]


def assert_one_error_line(bad, capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(MALFORMED_MORPHISMS))
def test_cli_morph_rejects_malformed_manifest(case, tmp_path, rng, capsys):
    bad = tmp_path / "bad.vm"
    bad.write_text(json.dumps(MALFORMED_MORPHISMS[case]))
    assert main(cli_argv("morph", bad, tmp_path, rng)) == 1
    assert_one_error_line(bad, capsys)


DIGITS = "9" * 5000  # past Python's 4300-digit limit on int parsing
RAW_MALFORMED = {
    "5000-digit memory": ("info", "bad.vk", f'{{"version": 1, "memory": {DIGITS}, "kernels": []}}'),
    "4000-digit order": (
        "info", "bad.vk",
        f'{{"version": 1, "memory": 2, "kernels": [{{"index": 1, "order": {DIGITS[:4000]}, "data": []}}]}}',
    ),
    "nesting past the recursion limit": ("info", "bad.vk", "[" * 100000 + "]" * 100000),
    "non-UTF-8 series": ("info", "bad.vk", b'{"version": 1, "memory": 1, "kernels": [{"index": "\xff"}]}'),
    "5000-digit length": ("morph", "bad.vm", f'{{"version": 1, "length": {DIGITS}, "components": []}}'),
    "4000-digit mask order": (
        "morph", "bad.vm",
        f'{{"version": 1, "length": 4, "components": [{{"source": 1, "target": 1, "matrix": [[1]], '
        f'"mask_order": {DIGITS[:4000]}, "mask": []}}]}}',
    ),
    "non-UTF-8 morphism": ("morph", "bad.vm", b'{"version": 1, "length": 4, "components": []}\xff'),
    "non-UTF-8 signal": ("eval", "bad.csv", b"1.0,0.0\n\xff,1\n"),
}


@pytest.mark.parametrize("case", sorted(RAW_MALFORMED))
def test_cli_malformed_bytes_end_in_one_error_line(case, tmp_path, rng, capsys):
    command, name, content = RAW_MALFORMED[case]
    bad = tmp_path / name
    bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert main(cli_argv(command, bad, tmp_path, rng)) == 1
    assert_one_error_line(bad, capsys)


def test_cli_morph_malformed_manifest_is_error(tmp_path, rng, capsys):
    vk = write_series(tmp_path, "v.vk", random_series(1, 4, rng))
    path = tmp_path / "bad.vm"
    path.write_text(json.dumps(MALFORMED_MORPHISMS["short mask"]))
    code = main(["morph", "--check-naturality", "--morphism", str(path), "--source", vk, "--target", vk])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "text, line",
    [("1,2\n1,abc\n", 2), ("1,2\n\n3\n", 3)],
    ids=["non-number", "ragged"],
)
def test_read_grid_csv_rejects_malformed_rows(text, line, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ContractViolation, match=f"bad.csv:{line}:"):
        io.read_grid_csv(path)


@pytest.mark.parametrize("reader", [io.read_grid_csv, io.read_signal_csv], ids=["grid", "signal"])
def test_csv_readers_reject_empty_file(reader, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(ContractViolation, match="empty.csv: empty (grid|signal) file"):
        reader(path)


def test_cli_empty_signal_csv_is_error(tmp_path, rng, capsys):
    """No subcommand reads a grid file; ``eval`` reaches the same empty-file check."""
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    vk = write_series(tmp_path, "v.vk", random_series(1, 2, rng))
    argv = ["eval", "--series", vk, "--signal", str(empty), "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "empty signal file" in captured.err


def test_read_signal_csv_rejects_non_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.0\n1.0,abc\n")
    with pytest.raises(ContractViolation, match="bad.csv:2:"):
        io.read_signal_csv(path)


@pytest.mark.parametrize("command", ["eval", "tfd"])
def test_cli_malformed_signal_csv_is_error(command, tmp_path, rng, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,abc\n")
    out = str(tmp_path / "out.csv")
    if command == "eval":
        vk = write_series(tmp_path, "v.vk", random_series(1, 2, rng))
        argv = ["eval", "--series", vk, "--signal", str(bad), "--out", out]
    else:
        good = tmp_path / "x.csv"
        io.write_signal_csv(good, random_signal(16, rng))
        argv = ["tfd", "--in", str(good), "--method", "cohen", "--phi", "spectrogram",
                "--window", str(bad), "--out", out]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "bad.csv:1:" in captured.err
