import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from test_serialize import deeply_nested_text
from test_verify import INCOMPLETE
import tightport as tp
from tightport.cli import main
from tightport.serialize import load


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def weyl2_file(tmp_path):
    path = tmp_path / "b.json"
    assert run("generate", "unitary-basis", "--construction", "weyl", "--d", 2, "-o", path) == 0
    return path


@pytest.fixture
def scheme_file(tmp_path, weyl2_file):
    path = tmp_path / "s.json"
    code = run(
        "generate", "scheme", "--from-basis", weyl2_file,
        "--mode", "teleportation", "-o", path,
    )
    assert code == 0
    return path


class TestGenerate:
    def test_weyl_basis_document_has_four_matrices(self, weyl2_file):
        doc = load(weyl2_file)
        assert doc.kind == "unitary_basis"
        assert doc.payload["elements"].shape == (4, 2, 2)

    def test_fourier_hadamard_verifies_on_reload(self, tmp_path):
        path = tmp_path / "h.json"
        assert run("generate", "hadamard", "--construction", "fourier", "--d", 5, "-o", path) == 0
        assert run("verify", path) == 0

    def test_scheme_embeds_all_components(self, scheme_file):
        doc = load(scheme_file)
        assert doc.payload["omega"].shape == (4,)
        assert doc.payload["channel_unitaries"].shape == (4, 2, 2)
        assert doc.payload["effect_vectors"].shape == (4, 4)
        assert run("verify", scheme_file) == 0

    def test_missing_required_param(self, tmp_path, capsys):
        code = run("generate", "unitary-basis", "--construction", "weyl", "-o", tmp_path / "x.json")
        assert code == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_construction(self, tmp_path):
        code = run("generate", "hadamard", "--construction", "walsh", "--d", 4, "-o", tmp_path / "x.json")
        assert code == 2

    def test_random_requires_seed(self, tmp_path):
        code = run("generate", "latin", "--construction", "random", "--d", 4, "-o", tmp_path / "x.json")
        assert code == 2

    def test_determinism_with_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(
                "generate", "hadamard", "--construction", "periodic",
                "--p", 2, "--q", 3, "--rng-seed", 11, "-o", path,
            ) == 0
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ("latin", "--construction", "cyclic", "--d", 4),
            ("latin", "--construction", "random", "--d", 5, "--rng-seed", 3),
            ("hadamard", "--construction", "fourier", "--d", 6),
            ("hadamard", "--construction", "d4-family", "--u-phase", 0.7),
            ("hadamard", "--construction", "periodic", "--p", 2, "--q", 2, "--rng-seed", 5),
            ("unitary-basis", "--construction", "weyl", "--d", 3),
        ],
    )
    def test_generate_verify_closure(self, tmp_path, argv):
        path = tmp_path / "out.json"
        assert run("generate", *argv, "-o", path) == 0
        assert run("verify", path) == 0

    def test_shift_multiply_from_files(self, tmp_path):
        latin = tmp_path / "l.json"
        hadamard = tmp_path / "h.json"
        basis = tmp_path / "b.json"
        assert run("generate", "latin", "--construction", "cyclic", "--d", 3, "-o", latin) == 0
        assert run("generate", "hadamard", "--construction", "fourier", "--d", 3, "-o", hadamard) == 0
        code = run(
            "generate", "unitary-basis", "--construction", "shift-multiply",
            "--latin", latin, "--hadamards", hadamard, "-o", basis,
        )
        assert code == 0
        assert run("verify", basis) == 0

    def test_entangled_basis_closure(self, tmp_path, weyl2_file):
        path = tmp_path / "e.json"
        assert run("generate", "entangled-basis", "--from-basis", weyl2_file, "-o", path) == 0
        assert run("verify", path) == 0


class TestVerify:
    def test_corrupted_entry_fails_with_deviation(self, tmp_path, weyl2_file, capsys):
        data = json.loads(weyl2_file.read_text())
        data["payload"]["elements"][0][0][0][0] += 0.01
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run("verify", bad) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "deviation" in out
        assert out.endswith("; worst: element 0 is not unitary\n")

    def test_corrupted_latin_fails(self, tmp_path, capsys):
        latin = tmp_path / "l.json"
        assert run("generate", "latin", "--construction", "cyclic", "--d", 3, "-o", latin) == 0
        data = json.loads(latin.read_text())
        data["payload"]["grid"][1] = data["payload"]["grid"][0]  # rows valid, columns not
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run("verify", bad) == 1
        assert "column 0" in capsys.readouterr().out

    def test_out_of_range_symbol_exits_2(self, tmp_path, capsys):
        latin = tmp_path / "l.json"
        assert run("generate", "latin", "--construction", "cyclic", "--d", 3, "-o", latin) == 0
        capsys.readouterr()
        data = json.loads(latin.read_text())
        data["payload"]["grid"][1][1] = 3
        latin.write_text(json.dumps(data))
        assert run("verify", latin) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: entries must lie in 0..2\n"

    def test_truncated_file(self, tmp_path, weyl2_file):
        bad = tmp_path / "t.json"
        bad.write_text(weyl2_file.read_text()[:40])
        assert run("verify", bad) == 2

    def test_missing_file(self, tmp_path):
        assert run("verify", tmp_path / "nope.json") == 2

    @pytest.mark.parametrize("where", ["bare", "payload.grid"])
    def test_deep_nesting_exits_2(self, tmp_path, capsys, where):
        bad = tmp_path / "deep.json"
        bad.write_text(deeply_nested_text(where))
        assert run("verify", bad) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "number", ["1e400", "-1e400", "9" * 400], ids=["1e400", "-1e400", "400-digit"]
    )
    def test_out_of_range_number_exits_2(self, tmp_path, weyl2_file, capsys, number):
        data = json.loads(weyl2_file.read_text())
        data["payload"]["elements"][2][1][0] = [0.5, "HUGE"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data).replace('"HUGE"', number))
        assert run("verify", bad) == 2
        err = capsys.readouterr().err
        assert "payload.elements[2][1][0]" in err and "Traceback" not in err

    def test_corrupted_scheme_fails(self, tmp_path, scheme_file, capsys):
        data = json.loads(scheme_file.read_text())
        data["payload"]["omega"][0][0] = 0.9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run("verify", bad) == 1


class TestSimulate:
    def test_pure_state(self, scheme_file, capsys):
        assert run("simulate", scheme_file, "--state", "pure:0") == 0
        out = capsys.readouterr().out
        assert "0.250000, 0.250000, 0.250000, 0.250000" in out

    def test_maximally_mixed(self, scheme_file):
        assert run("simulate", scheme_file, "--state", "maximally-mixed") == 0

    def test_random_states(self, scheme_file):
        assert run(
            "simulate", scheme_file, "--state", "random", "--rng-seed", 9, "--trials", 5
        ) == 0

    def test_random_without_seed(self, scheme_file):
        assert run("simulate", scheme_file, "--state", "random") == 2

    def test_bad_state_spec(self, scheme_file):
        assert run("simulate", scheme_file, "--state", "pure:7") == 2
        assert run("simulate", scheme_file, "--state", "thermal") == 2

    def test_corrupted_scheme_reports_deviation(self, tmp_path, scheme_file, capsys):
        data = json.loads(scheme_file.read_text())
        data["payload"]["channel_unitaries"][1][0][1][0] += 0.2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run("simulate", bad, "--state", "pure:0") == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_output_fails(self, tmp_path, scheme_file, capsys):
        # a finite resource entry of 1e300 squares to inf, and the output would
        # be NaN; the scheme's verdict rejects the resource before any trial
        data = json.loads(scheme_file.read_text())
        data["payload"]["omega"][0] = data["payload"]["omega"][3] = [1e300, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run("simulate", bad, "--state", "maximally-mixed") == 1
        out = capsys.readouterr().out
        assert out == (
            "FAIL scheme (d=2): max deviation inf exceeds tol 1e-10; "
            "worst: resource is not a unit vector or a pure state\n"
        )

    def test_overflowing_channel_entry_rejected(self, tmp_path, scheme_file, capsys):
        data = json.loads(scheme_file.read_text())
        data["payload"]["channel_unitaries"][1][0][0] = ["HUGE", 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data).replace('"HUGE"', "1e400"))
        assert run("simulate", bad, "--state", "pure:0") == 2
        assert "payload.channel_unitaries[1][0][0]" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, scheme_file, capsys, trials):
        assert run("simulate", scheme_file, "--state", "maximally-mixed", "--trials", trials) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "--trials" in captured.err

    def test_wrong_kind(self, weyl2_file):
        assert run("simulate", weyl2_file, "--state", "pure:0") == 2


NON_POSITIVE_D_ARGV = [
    ("latin", "--construction", "cyclic", "--d", "{d}"),
    ("latin", "--construction", "random", "--d", "{d}", "--rng-seed", 1),
    ("hadamard", "--construction", "fourier", "--d", "{d}"),
    ("hadamard", "--construction", "periodic", "--p", "{d}", "--q", 2),
    ("hadamard", "--construction", "periodic", "--p", 2, "--q", "{d}"),
    ("unitary-basis", "--construction", "weyl", "--d", "{d}"),
]


@pytest.mark.parametrize("d", [-1, 0])
@pytest.mark.parametrize(
    "argv", NON_POSITIVE_D_ARGV,
    ids=lambda a: "-".join(str(x).lstrip("-") for x in a if x != "--construction"),
)
def test_generate_rejects_non_positive_dimension(tmp_path, capsys, argv, d):
    path = tmp_path / "x.json"
    argv = [d if a == "{d}" else a for a in argv]
    assert run("generate", *argv, "-o", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "must be positive" in err
    assert not path.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_tol_must_be_finite_and_non_negative(scheme_file, capsys, command, tol):
    extra = ("--state", "pure:0") if command == "simulate" else ()
    assert run(command, scheme_file, *extra, "--tol", tol) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol: must be a finite number >= 0" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("phase", ["nan", "inf", "-1e400"])
def test_u_phase_must_be_finite(tmp_path, capsys, phase):
    path = tmp_path / "h.json"
    argv = ("generate", "hadamard", "--construction", "d4-family", f"--u-phase={phase}")
    assert run(*argv, "-o", path) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: d4-family requires a finite --u-phase, got {float(phase)}\n"
    assert not path.exists()


# A bad parameter's one error line names its flag, and for a missing or unknown
# construction the valid choices, instead of passing a Python or numpy message on.
FLAG_ERRORS = {
    "pure index not a number": (("simulate", "{scheme}", "--state", "pure:x"), ["--state"]),
    "pure index missing": (("simulate", "{scheme}", "--state", "pure:"), ["--state"]),
    "pure index negative": (("simulate", "{scheme}", "--state", "pure:-1"), ["--state"]),
    "pure index too large": (("simulate", "{scheme}", "--state", "pure:4"), ["--state"]),
    "pure index in fullwidth digits": (
        ("simulate", "{scheme}", "--state", "pure:\uff11"), ["--state"]),
    "pure index in Arabic-Indic digits": (
        ("simulate", "{scheme}", "--state", "pure:\u0661"), ["--state"]),
    "negative seed, simulate": (
        ("simulate", "{scheme}", "--state", "random", "--rng-seed", -1), ["--rng-seed"]),
    "negative seed, generate": (
        ("generate", "latin", "--construction", "random", "--d", 3, "--rng-seed", -1, "-o", "{out}"),
        ["--rng-seed"]),
    "latin without construction": (
        ("generate", "latin", "--d", 3, "-o", "{out}"), ["--construction", "cyclic, random"]),
    "hadamard without construction": (
        ("generate", "hadamard", "--d", 3, "-o", "{out}"),
        ["--construction", "fourier, d4-family, periodic"]),
    "unitary basis without construction": (
        ("generate", "unitary-basis", "--d", 3, "-o", "{out}"),
        ["--construction", "weyl, shift-multiply"]),
    "unknown construction": (
        ("generate", "hadamard", "--construction", "walsh", "--d", 4, "-o", "{out}"),
        ["--construction", "'walsh'", "fourier, d4-family, periodic"]),
}


@pytest.mark.parametrize("case", sorted(FLAG_ERRORS))
def test_bad_parameter_error_names_its_flag(tmp_path, scheme_file, capsys, case):
    argv, named = FLAG_ERRORS[case]
    out = tmp_path / "out.json"
    assert run(*(str(a).format(scheme=scheme_file, out=out) for a in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    for text in named:
        assert text in captured.err


@pytest.mark.parametrize("message", ["Unable to allocate 121. GiB for an array", ""])
def test_out_of_memory_is_a_bad_parameter(tmp_path, capsys, monkeypatch, message):
    # stands in for weyl_basis(300), which would ask numpy for 121 GiB
    def too_large(d):
        raise MemoryError(message)

    monkeypatch.setattr("tightport.cli.weyl_basis", too_large)
    path = tmp_path / "big.json"
    assert run("generate", "unitary-basis", "--construction", "weyl", "--d", 300, "-o", path) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not path.exists()
    assert captured.err.startswith("error: not enough memory") and "Traceback" not in captured.err
    assert message in captured.err


@pytest.mark.parametrize("family", sorted(INCOMPLETE))
def test_scheme_with_incomplete_effects_fails_verify_and_simulate(tmp_path, capsys, family):
    make, entry = INCOMPLETE[family]
    basis, scheme = tmp_path / "basis.json", tmp_path / "scheme.json"
    tp.save(tp.make_document(make()), basis)
    assert run("generate", "scheme", "--from-basis", basis, "-o", scheme) == 0
    capsys.readouterr()
    line = (
        "FAIL scheme (d=3): max deviation 1.000e+00 exceeds tol 1e-10; "
        f"worst: effect vectors are not a complete measurement: {entry}\n"
    )
    assert run("verify", scheme) == 1
    assert capsys.readouterr().out == line
    assert run("simulate", scheme, "--state", "pure:0") == 1
    assert capsys.readouterr().out == line


def test_simulate_verifies_a_dense_coding_scheme_as_teleportation(tmp_path, capsys):
    # W = V / sqrt(3) with W^T != +-W: a valid dense-coding scheme whose
    # teleportation reading, which the trials run, fails
    d = 3
    omega = random_unitary(np.random.default_rng(5), d).reshape(-1) / np.sqrt(d)
    basis = tp.weyl_basis(d)
    effects = tp.basis_to_entangled(basis, omega)
    scheme = tp.TightScheme(d, omega, basis.elements, effects, tp.DENSE_CODING)
    path = tmp_path / "dense.json"
    tp.save(tp.make_document(scheme), path)
    assert run("verify", path) == 0
    capsys.readouterr()
    assert run("simulate", path, "--state", "pure:0") == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL scheme (d=3): max deviation ")
    assert "; worst: outcome " in lines[0]  # an outcome, or the outcome weights


def test_simulate_prints_only_the_trials_for_a_valid_scheme(scheme_file, capsys):
    assert run("simulate", scheme_file, "--state", "pure:0") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["max", "outcome", "PASS"]
    assert lines[2] == "PASS within tol 1e-10"


class TestCountLatin:
    def test_d5(self, capsys):
        assert run("count-latin", 5) == 0
        assert capsys.readouterr().out.strip() == "56"

    def test_d4(self, capsys):
        assert run("count-latin", 4) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_d6_rejected(self, capsys):
        assert run("count-latin", 6) == 2
        assert "d=5" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [-1, 0])
    def test_non_positive_rejected(self, capsys, d):
        assert run("count-latin", d) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be positive" in captured.err and "Traceback" not in captured.err


def test_no_command_shows_usage():
    assert run() == 2


# The CLI contract: main returns 0, 1 or 2 on any argv and never raises.  Sizes
# stay small (at most a 64 x 64 periodic Hadamard), and every run is in-process.
SIZES = st.integers(-2, 8).map(str)
NUMBERS = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400", "-1e400", "-0.0", "1e-400", "x", ""]),
)
STATES = st.one_of(
    st.sampled_from(["maximally-mixed", "random", "thermal", "pure:", "pure:x", ""]),
    st.integers(-2, 5).map("pure:{}".format),
)
CONSTRUCTIONS = {
    "latin": ["cyclic", "random"],
    "hadamard": ["fourier", "d4-family", "periodic"],
    "unitary-basis": ["weyl", "shift-multiply"],
    "entangled-basis": [],
    "scheme": [],
    "sudoku": [],
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Input paths of every sort: five valid documents and five that are not."""
    root = tmp_path_factory.mktemp("fuzz")
    basis = tp.weyl_basis(2)
    valid = {
        "basis": basis,
        "scheme": tp.build_scheme(basis),
        "dense": tp.build_scheme(basis, tp.DENSE_CODING),
        "latin": tp.latin_from_cyclic(3),
        "hadamard": tp.fourier_hadamard(2),
    }
    for name, obj in valid.items():
        tp.save(tp.make_document(obj), root / f"{name}.json")
    (root / "binary.json").write_bytes(b'\xff\xfe{"v": 1}')
    (root / "deep.json").write_text(deeply_nested_text("payload.grid"))
    unknown = json.loads((root / "latin.json").read_text())
    unknown["kind"] = "sudoku"
    (root / "unknown.json").write_text(json.dumps(unknown))
    (root / "inputs").mkdir()
    names = [*valid, "binary", "deep", "unknown"]
    return root, [str(root / f"{name}.json") for name in names] + [
        str(root / "missing.json"), str(root / "inputs"),
    ]


def _draw_options(data, options):
    """Some of ``options`` (flag -> value strategy) as ``flag=value``, in drawn order."""
    flags = data.draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    return [f"{flag}={data.draw(options[flag])}" for flag in flags]


def _draw_argv(data, root, files):
    command = data.draw(st.sampled_from(["generate", "verify", "simulate", "count-latin", "x"]))
    file = st.sampled_from(files)
    if command == "generate":
        kind = data.draw(st.sampled_from(sorted(CONSTRUCTIONS)))
        construction = st.sampled_from([*CONSTRUCTIONS[kind], "walsh"])
        output = st.sampled_from([str(root / "out.json"), str(root / "inputs")])
        return ["generate", kind, f"--output={data.draw(output)}", *_draw_options(data, {
            "--construction": construction,
            "--d": SIZES, "--p": SIZES, "--q": SIZES,
            "--u-phase": NUMBERS,
            "--latin": file,
            "--hadamards": file,
            "--from-basis": file,
            "--mode": st.sampled_from(["teleportation", "dense-coding", "sideways"]),
            "--rng-seed": st.integers(-1, 3),
        })]
    if command == "verify":
        return ["verify", data.draw(file), *_draw_options(data, {"--tol": NUMBERS})]
    if command == "simulate":
        return ["simulate", data.draw(file), f"--state={data.draw(STATES)}", *_draw_options(data, {
            "--trials": st.integers(-1, 3),
            "--tol": NUMBERS,
            "--rng-seed": st.integers(-1, 3),
        })]
    if command == "count-latin":
        return ["count-latin", str(data.draw(st.integers(-1, 7)))]
    return data.draw(st.lists(st.sampled_from(["x", "--help", "-o"]), max_size=2))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_argv_exits_0_1_or_2(fuzz_files, data):
    argv = _draw_argv(data, *fuzz_files)
    assert main(argv) in (0, 1, 2)
