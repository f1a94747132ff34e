import contextlib
import copy
import errno
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bocl

from bocl.ast import MAX_DEPTH, ast_from_json, pretty_print
from bocl.cli import main
from bocl.evaluator import evaluate_constraint
from bocl.model_io import load_objects, load_structural
from bocl.parser import parse_constraint
from bocl.resolver import resolve

from conftest import MODEL_PATH, OBJECTS_PATH
from generators import gen_syntactic_constraint
from reference_eval import reference_verdict


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_check_golden_model(model_path, capsys):
    code = main(["check", str(model_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["BookPageNumber: OK", "LibaryCollect: OK"]


# A 200-constraint model of the benchmark's check-many family
# (bench/workloads.py check_many, seed 11, scale 0.2, written with indent 2
# as bench/run.py writes it) and what `bocl check --emit-ast` gave for it
# when it was committed: stdout, stderr, and in the .result file the exit
# code and the SHA-256 of the `sha256sum *.json` listing of the AST files.
# CI compares the installed console script with the same files.
GOLDEN = Path(__file__).resolve().parent / "data" / "check-many-s11"


def test_check_output_matches_the_committed_golden_files(tmp_path, capsys):
    out_dir = tmp_path / "ast"
    code = main(["check", f"{GOLDEN}.model.json", "--emit-ast", str(out_dir)])
    captured = capsys.readouterr()
    assert captured.out == Path(f"{GOLDEN}.stdout").read_text(encoding="utf-8")
    assert captured.err == Path(f"{GOLDEN}.stderr").read_text(encoding="utf-8")
    listing = "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
        for path in sorted(out_dir.glob("*.json"))
    )
    digest = hashlib.sha256(listing.encode()).hexdigest()
    result = f"exit {code}\nast-sha256 {digest}\n"
    assert result == Path(f"{GOLDEN}.result").read_text(encoding="utf-8")


def test_check_reports_syntax_error(tmp_path, model_doc, capsys):
    model_doc["constraints"][0]["expression"] = "context Book inv: self.pages >"
    path = write(tmp_path, "m.json", model_doc)
    code = main(["check", path])
    captured = capsys.readouterr()
    assert code == 2
    assert "syntax error" in captured.err
    assert "1:31" in captured.err  # positioned at the missing operand
    # The healthy constraint still reports OK.
    assert "LibaryCollect: OK" in captured.out


def test_check_rejects_real_literal_out_of_range(tmp_path, model_doc, capsys):
    model_doc["constraints"][0]["expression"] = (
        "context Book inv big: self.pages < 1" + "0" * 400 + ".0"
    )
    path = write(tmp_path, "m.json", model_doc)
    code = main(["check", path, "--emit-ast", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "BookPageNumber: syntax error: 1:36: real literal out of range\n"
    assert not (tmp_path / "out" / "BookPageNumber.json").exists()


def test_check_reports_resolution_error(tmp_path, model_doc, capsys):
    model_doc["constraints"][0]["expression"] = "context Book inv x: self.pagecount > 0"
    path = write(tmp_path, "m.json", model_doc)
    code = main(["check", path])
    assert code == 2
    assert "pagecount" in capsys.readouterr().err


def test_check_emit_ast(tmp_path, model_path, model_doc, capsys):
    out_dir = tmp_path / "out"
    code = main(["check", str(model_path), "--emit-ast", str(out_dir)])
    assert code == 0
    files = sorted(p.name for p in out_dir.glob("*.json"))
    # One file per constraint in the golden model.
    assert len(files) == len(model_doc["constraints"])
    assert files == ["BookPageNumber.json", "LibaryCollect.json"]
    doc = json.loads((out_dir / "BookPageNumber.json").read_text())
    assert doc["schemaVersion"] == "bocl-ast/1"
    expected = parse_constraint(model_doc["constraints"][0]["expression"])
    assert ast_from_json(doc) == expected


@pytest.mark.parametrize("blocked", ["directory", "file"])
def test_check_emit_ast_unwritable_is_one_diagnostic(tmp_path, model_path, capsys, blocked):
    out_dir = tmp_path / "out"
    if blocked == "directory":
        # A file where a directory should be: mkdir fails.
        out_dir.write_text("")
        out_dir = target = out_dir / "x"
    else:
        # A directory where the first AST file should be: the write fails.
        target = out_dir / "BookPageNumber.json"
        target.mkdir(parents=True)
    code = main(["check", str(model_path), "--emit-ast", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "BookPageNumber: OK\n"
    assert re.fullmatch(
        rf"cannot write --emit-ast output: \[Errno \d+\] [^\n]*: '{re.escape(str(target))}'\n",
        captured.err,
    )


def test_eval_escapes_text_the_output_encoding_cannot_hold(tmp_path, model_doc, objects_path):
    expression = "context Book inv pageNumberInv: self.pages>0 and 'café' <> ''"
    model_doc["constraints"][0]["expression"] = expression
    path = write(tmp_path, "m.json", model_doc)
    src = str(Path(bocl.__file__).resolve().parent.parent)
    outputs = {}
    for encoding in ("ascii", "utf-8"):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            PYTHONIOENCODING=encoding,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "bocl", "eval", path, str(objects_path)],
            capture_output=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs[encoding] = proc.stdout.splitlines()[0]
    assert outputs["ascii"] == f"Invariant:{expression}:True".replace("é", "\\xe9").encode()
    assert outputs["utf-8"] == f"Invariant:{expression}:True".encode()


def test_check_missing_model(tmp_path, capsys):
    code = main(["check", str(tmp_path / "nope.json")])
    assert code == 2
    assert "NotFound" in capsys.readouterr().err


def test_eval_golden_corpus(model_path, objects_path, capsys):
    code = main(["eval", str(model_path), str(objects_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == [
        "Invariant:context Book inv pageNumberInv: self.pages>0:True",
        "Invariant:context Library inv atLeastOneSmallBook: "
        "self.contains->select(i_book : Book | i_book.pages <= 110)->size()>0:True",
    ]


def test_eval_false_exit_code(tmp_path, model_path, objects_doc, capsys):
    for obj in objects_doc["objects"]:
        if obj["name"] == "book_obj":
            obj["slots"]["pages"] = 0
    path = write(tmp_path, "o.json", objects_doc)
    code = main(["eval", str(model_path), path])
    captured = capsys.readouterr()
    assert code == 1
    assert "Invariant:context Book inv pageNumberInv: self.pages>0:False" in captured.out


def test_eval_missing_objects_file(tmp_path, model_path, capsys):
    code = main(["eval", str(model_path), str(tmp_path / "ghost.json")])
    assert code == 2
    assert "NotFound" in capsys.readouterr().err


def test_eval_error_exit_code(tmp_path, model_doc, objects_path, capsys):
    model_doc["constraints"][0]["expression"] = "context Book inv q: 1/0 = 1"
    path = write(tmp_path, "m.json", model_doc)
    code = main(["eval", path, str(objects_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "Error(Exception Occured! Info: division by zero)" in captured.out


def test_eval_int_overflow_is_one_error(tmp_path, model_doc, objects_path, capsys):
    expression = (
        "context Book inv big: " + " * ".join(["9223372036854775807"] * 18) + " + 0.5 > 0"
    )
    model_doc["constraints"][0]["expression"] = expression
    path = write(tmp_path, "m.json", model_doc)
    code = main(["eval", path, str(objects_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines() == [
        f"Invariant:{expression}:"
        "Error(Exception Occured! Info: int too large to convert to float)",
        "Invariant:context Library inv atLeastOneSmallBook: "
        "self.contains->select(i_book : Book | i_book.pages <= 110)->size()>0:True",
    ]


def test_eval_closed_stdout_exits_quietly(tmp_path, model_doc, objects_path):
    # A report far larger than a pipe buffer, so the write fails mid-report.
    model_doc["constraints"] = [
        dict(con, name=f"{con['name']}{k}")
        for k in range(2000)
        for con in model_doc["constraints"]
    ]
    path = write(tmp_path, "m.json", model_doc)
    src = str(Path(bocl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bocl", "eval", path, str(objects_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(16) == b"Invariant:contex"
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["eval", str(MODEL_PATH), str(OBJECTS_PATH)],
    ["eval", str(MODEL_PATH), str(OBJECTS_PATH), "--format", "json"],
    ["check", str(MODEL_PATH)],
], ids=["eval-text", "eval-json", "check"])
def test_full_stdout_is_one_diagnostic(argv):
    src = str(Path(bocl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "bocl", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == [
        f"cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    ]


def test_eval_json_format(model_path, objects_path, capsys):
    code = main(["eval", str(model_path), str(objects_path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert [r["overall"] for r in doc["results"]] == ["True", "True"]


def test_eval_warnings_go_to_stderr(tmp_path, model_path, objects_doc, capsys):
    # Remove the author link: writedBy is 1..*, so a count warning appears.
    objects_doc["links"] = [
        l for l in objects_doc["links"] if l["association"] != "book_author_assoc"
    ]
    path = write(tmp_path, "o.json", objects_doc)
    code = main(["eval", str(model_path), path])
    captured = capsys.readouterr()
    assert code == 0  # neither constraint involves writedBy
    assert "warning" in captured.err
    assert "writedBy" in captured.err
    assert "warning" not in captured.out


def test_unsupported_stereotype_via_eval(tmp_path, model_doc, objects_path, capsys):
    model_doc["constraints"][0]["expression"] = "context Book pre q: self.pages > 0"
    path = write(tmp_path, "m.json", model_doc)
    code = main(["eval", path, str(objects_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "unsupported stereotype" in captured.out


def test_unsupported_stereotype_via_check(tmp_path, model_doc, capsys):
    model_doc["constraints"][1]["expression"] = "context Library post q: true"
    path = write(tmp_path, "m.json", model_doc)
    code = main(["check", path])
    captured = capsys.readouterr()
    assert code == 2
    assert "unsupported stereotype" in captured.err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "only-one-arg.json"])
    assert exc.value.code == 2


MIXED_COLLECT = (
    "context Library inv mixed: "
    "self.contains->collect(b | if b.pages > 0 then 1 else 2.0 endif)->exists(x | x > 1.5)"
)


def test_eval_collect_of_mixed_int_and_real(tmp_path, model_doc, objects_doc, capsys):
    # The if yields an Int for one book and a Real for the other.
    model_doc["constraints"] = [
        {"name": "Mixed", "context": "Library", "expression": MIXED_COLLECT},
        {"name": "Pages", "context": "Book",
         "expression": "context Book inv pages: self.pages > 0"},
    ]
    objects_doc["objects"].append(
        {"name": "neg_book", "class": "Book",
         "slots": {"title": "Minus", "pages": -3, "release": "2021-01-01"}}
    )
    objects_doc["links"].append(
        {"name": "library_neg_link", "association": "lib_book_assoc",
         "ends": [{"role": "locatedIn", "object": "library_obj"},
                  {"role": "contains", "object": "neg_book"}]}
    )
    model_path = write(tmp_path, "m.json", model_doc)
    objects_path = write(tmp_path, "o.json", objects_doc)
    code = main(["eval", model_path, objects_path])
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"Invariant:{MIXED_COLLECT}:True",
        "Invariant:context Book inv pages: self.pages > 0:False",
    ]
    assert code == 1
    assert "Traceback" not in captured.err

    model = load_structural(model_path)
    objects, _warnings = load_objects(objects_path, model)
    ast = parse_constraint(MIXED_COLLECT)
    mine = evaluate_constraint(resolve(ast, model), objects)
    ref = reference_verdict(ast, model, objects)
    assert mine.overall.value == ref.overall == "True"
    assert mine.per_instance == ref.per_instance


# Deeper than MAX_DEPTH, each with the column of the token that crosses
# it. Without the limit, each would exhaust the stack of a different
# walker: the parser, the resolver and the evaluator.
DEEP_CONSTRAINTS = {
    "parens": ("context Book inv deep: " + "(" * 1000 + "true" + ")" * 1000, 174),
    "and_chain": ("context Book inv deep: " + " and ".join(["true"] * 500), 1379),
    "forAll": (
        "context Book inv deep: "
        + "self.locatedIn.contains->forAll(b | " * 220 + "true" + ")" * 220,
        5375,
    ),
}


def test_eval_150_nested_parentheses(tmp_path, model_doc, objects_path, capsys):
    expression = "context Book inv nested: " + "(" * 150 + "true" + ")" * 150
    model_doc["constraints"][0]["expression"] = expression
    path = write(tmp_path, "m.json", model_doc)
    code = main(["eval", path, str(objects_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == f"Invariant:{expression}:True"


def _with_deep_constraint(model_doc, expression):
    model_doc["constraints"].insert(
        1, {"name": "Deep", "context": "Book", "expression": expression}
    )
    return model_doc


@pytest.mark.parametrize("kind", sorted(DEEP_CONSTRAINTS))
def test_check_deep_constraint_is_one_diagnostic(tmp_path, model_doc, capsys, kind):
    expression, col = DEEP_CONSTRAINTS[kind]
    path = write(tmp_path, "m.json", _with_deep_constraint(model_doc, expression))
    code = main(["check", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines() == ["BookPageNumber: OK", "LibaryCollect: OK"]
    assert captured.err == f"Deep: syntax error: 1:{col}: expression nests too deeply\n"


@pytest.mark.parametrize("kind", sorted(DEEP_CONSTRAINTS))
def test_eval_deep_constraint_is_one_error(tmp_path, model_doc, objects_path, capsys, kind):
    expression, col = DEEP_CONSTRAINTS[kind]
    path = write(tmp_path, "m.json", _with_deep_constraint(model_doc, expression))
    code = main(["eval", path, str(objects_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.splitlines() == [
        "Invariant:context Book inv pageNumberInv: self.pages>0:True",
        f"Invariant:{expression}:Error(Exception Occured! Info: 1:{col}: "
        "expression nests too deeply)",
        "Invariant:context Library inv atLeastOneSmallBook: "
        "self.contains->select(i_book : Book | i_book.pages <= 110)->size()>0:True",
    ]
    assert "Traceback" not in captured.err


# The seven shapes of deep input, each a function of its level count as
# the parser counts it (see bocl.parser), all for context Book.
def _right_nested(levels):
    half, odd = divmod(levels - 1, 2)
    return "0 < " + "1 + (" * half + ("(1)" if odd else "1") + ")" * half


DEPTH_SHAPES = {
    "parens": lambda n: "(" * n + "true" + ")" * n,
    "if": lambda n: "if true then " * n + "true" + " else false endif" * n,
    "right_nested": _right_nested,
    "forAll": lambda n: "self.locatedIn.contains->forAll(b | " * (n - 2) + "true" + ")" * (n - 2),
    "and_chain": lambda n: " and ".join(["true"] * (n + 1)),
    "not_chain": lambda n: "not " * n + "true",
    "select_chain": lambda n: (
        "self.locatedIn.contains" + "->select(b | true)" * (n - 3) + "->notEmpty()"
    ),
}

# For each model: check with --emit-ast, eval, and, if Deep was emitted,
# whether decoding it, parsing its text and parsing its pretty_print all
# give one tree. All of it runs 100 frames down under the default
# recursion limit; the results are printed as JSON.
_AT_DEPTH = """
import contextlib, io, json, sys
from pathlib import Path
from bocl.ast import ast_from_json, pretty_print
from bocl.cli import main
from bocl.parser import parse_constraint

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]

def pipeline(objects, model):
    ast_dir = Path(model + ".ast")
    result = {"check": run("check", model, "--emit-ast", str(ast_dir)),
              "eval": run("eval", model, objects)}
    if (ast_dir / "Deep.json").exists():
        ast = ast_from_json(json.loads((ast_dir / "Deep.json").read_text()))
        text = json.loads(Path(model).read_text())["constraints"][1]["expression"]
        result["round_trip"] = ast == parse_constraint(text) == parse_constraint(pretty_print(ast))
    return result

def down(frames):
    return down(frames - 1) if frames else [pipeline(sys.argv[1], m) for m in sys.argv[2:]]

assert sys.getrecursionlimit() == 1000
print(json.dumps(down(100)))
"""


@pytest.mark.parametrize("shape", sorted(DEPTH_SHAPES))
def test_every_shape_nests_to_max_depth(tmp_path, model_doc, objects_path, shape):
    texts = [
        "context Book inv deep: " + DEPTH_SHAPES[shape](depth)
        for depth in (MAX_DEPTH, MAX_DEPTH + 1)
    ]
    models = [
        write(tmp_path, f"m{k}.json", _with_deep_constraint(copy.deepcopy(model_doc), text))
        for k, text in enumerate(texts)
    ]
    src = str(Path(bocl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _AT_DEPTH, str(objects_path), *models],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.stderr == ""
    at_max, past_max = json.loads(proc.stdout)

    assert at_max["check"] == [0, "BookPageNumber: OK\nDeep: OK\nLibaryCollect: OK\n", ""]
    code, out, err = at_max["eval"]
    assert (code, out.splitlines()[1], err) == (0, f"Invariant:{texts[0]}:True", "")
    assert at_max["round_trip"] is True

    code, out, err = past_max["check"]
    assert (code, out) == (2, "BookPageNumber: OK\nLibaryCollect: OK\n")
    position = re.fullmatch(r"Deep: syntax error: (1:\d+): expression nests too deeply\n", err)
    assert position is not None
    code, out, err = past_max["eval"]
    assert (code, out.splitlines()[1], err) == (2, (
        f"Invariant:{texts[1]}:Error(Exception Occured! Info: "
        f"{position[1]}: expression nests too deeply)"
    ), "")
    assert "round_trip" not in past_max


# Bytes that json.loads cannot turn into a document without a traceback.
UNDECODABLE = {
    "long_int": b'{"n": ' + b"1" * 5000 + b"}",
    "deep": b"[" * 100_000,
    "not_utf8": b'{"name": "caf\xe9"}',
}


@pytest.mark.parametrize("kind", sorted(UNDECODABLE))
@pytest.mark.parametrize("bad_doc", ["check model", "eval model", "eval objects"])
def test_undecodable_json_is_malformed(
    tmp_path, model_path, objects_path, capsys, kind, bad_doc
):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNDECODABLE[kind])
    command, which = bad_doc.split()
    paths = {"model": str(model_path), "objects": str(objects_path), which: str(bad)}
    argv = [command, paths["model"]]
    if command == "eval":
        argv.append(paths["objects"])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("Malformed: ")
    assert captured.err.count("\n") == 1


def test_eval_int_slot_beyond_64_bits(tmp_path, model_path, objects_doc, capsys):
    for obj in objects_doc["objects"]:
        if obj["name"] == "book_obj":
            obj["slots"]["pages"] = 2**63
    code = main(["eval", str(model_path), write(tmp_path, "o.json", objects_doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "Conformance: error: objects[book_obj].slots[pages]: slot out of range: "
        "attribute 'pages' is int, value 9223372036854775808 does not fit in 64 bits\n"
    )


def test_eval_real_slot_beyond_float_range(tmp_path, model_doc, objects_doc, capsys):
    for cls in model_doc["classes"]:
        if cls["name"] == "Book":
            cls["attributes"].append({"name": "price", "type": "real"})
    for obj in objects_doc["objects"]:
        if obj["name"] == "book_obj":
            obj["slots"]["price"] = 10**400
    model_path = write(tmp_path, "m.json", model_doc)
    code = main(["eval", model_path, write(tmp_path, "o.json", objects_doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "Conformance: error: objects[book_obj].slots[price]: slot out of range: "
        "attribute 'price' is real, value inf is not finite\n"
    )


# -- constraint-text fuzz --

# String literals, names, numbers, two-character operators, then any other
# single character, so that re-joining the tokens gives back equivalent text.
_TOKEN_RE = re.compile(r"'(?:[^']|'')*'|[A-Za-z_][A-Za-z0-9_]*|[0-9.]+|->|<>|<=|>=|\S")
_TOKEN_POOL = [
    "(", ")", "->", ".", "|", ":", ",", "'", "--", "not", "-", "/", "and", "=", "<",
    "if", "then", "else", "endif", "self", "inv", "context", "Book", "size", "forAll",
    "collect", "0", "1.5", "'x'", "9223372036854775807", "1" + "0" * 400 + ".0",
]


# Well-typed library constraints, so that some mutants still evaluate.
_SEED_CONSTRAINTS = [
    "context Book inv a: self.pages > 0 and self.title <> ''",
    "context Book inv b: if self.pages * 2 >= 10 then self.locatedIn.name = 'Children Library' "
    "else not (self.pages / 4 < 1.5) endif",
    "context Library inv c: self.contains->forAll(b : Book | b.writedBy->exists(a | a.email <> 'x'))",
    "context Library inv d: "
    "self.contains->select(b | b.pages <= 110)->collect(b | b.pages + 1)->size() > -1",
    "context Author inv e: "
    "self.publishes->reject(b | b.pages = 20)->isEmpty() or self.publishes->notEmpty()",
]


def _mutated_constraint(data):
    """A seed or generated constraint with 1 to 3 tokens swapped or replaced."""
    if data.draw(st.booleans()):
        text = data.draw(st.sampled_from(_SEED_CONSTRAINTS))
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        text = pretty_print(gen_syntactic_constraint(rng, max_depth=4))
    tokens = _TOKEN_RE.findall(text)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(tokens) - 1))
        if data.draw(st.booleans()):
            j = data.draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = data.draw(st.sampled_from(_TOKEN_POOL))
    return text.split()[1], " ".join(tokens)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=500)
@given(data=st.data())
def test_mutated_constraint_text_never_escapes(fuzz_dir, data):
    context, expression = _mutated_constraint(data)
    model_doc = json.loads(MODEL_PATH.read_text(encoding="utf-8"))
    model_doc["constraints"].insert(
        1, {"name": "Fuzzed", "context": context, "expression": expression}
    )
    model = write(fuzz_dir, "m.json", model_doc)
    for argv in (
        ["check", model],
        ["eval", model, str(OBJECTS_PATH)],
        ["eval", model, str(OBJECTS_PATH), "--format", "json"],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2)
        # The fuzzed constraint never costs the other two their verdicts.
        if argv[-1] == "json":
            assert len(json.loads(out.getvalue())["results"]) == 3
        elif argv[0] == "eval":
            assert len(out.getvalue().splitlines()) == 3
