"""Fuzz tests for the three text parsers: metadata, corrections and candidates.

Each file is well-formed records around one drawn record. When the drawn record
is malformed, the parser must raise ValidationError prefixed ``path:line:`` with
that record's line; a record of arbitrary text must parse or fail the same way.
No other exception may escape."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axialreid import detect_link as dl
from axialreid import evaluate as ev
from axialreid.errors import ValidationError

FUZZ = settings(max_examples=60, derandomize=True, database=None, deadline=None)

# a record is one line, anything but "\n"; the files are UTF-8, and bytes that
# are not are drawn separately (bad_utf8)
line_text = st.text(st.characters(codec="utf-8", exclude_characters="\n"), max_size=40)
field_text = st.text(st.characters(codec="utf-8", exclude_characters="\n\t"), max_size=8)
# byte sequences that are not UTF-8: a stray continuation or lead byte, a surrogate, a truncated 3-byte form
bad_utf8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82"])
identity = st.integers(0, 10**6)
negative = st.integers(-(10**6), -1)


def _not_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return True
    return False


def _not_float(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return True
    return False


non_int = field_text.filter(_not_int)
non_float = field_text.filter(_not_float)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")  # examples run one at a time and overwrite their file


def _write(path, lines: list[bytes | str]) -> None:
    path.write_bytes(b"".join((ln.encode() if isinstance(ln, str) else ln) + b"\n" for ln in lines))


@st.composite
def undecodable(draw, line: str) -> bytes:
    raw = line.encode()
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(bad_utf8) + raw[at:]


def _assert_names_line(message: str, path, lineno: int) -> None:
    assert message.startswith(f"{path}:{lineno}:") and message.count(f"{path}:") == 1, message


def _assert_rejected_at(parse, path, lineno: int) -> None:
    with pytest.raises(ValidationError) as exc:
        parse(path)
    _assert_names_line(str(exc.value), path, lineno)


def _parses_or_rejected_at(parse, path, lineno: int) -> None:
    try:
        parse(path)
    except ValidationError as exc:
        _assert_names_line(str(exc), path, lineno)


# ---------------------------------------------------------------------------
# metadata: role, tid, identity, camera[, ambiguous ids]


@st.composite
def metadata_lines(draw) -> list[str]:
    """Valid records with distinct tids, plus comments and blank lines."""
    lines = []
    for tid in range(draw(st.integers(0, 6))):
        ident = draw(identity)
        amb = draw(st.sets(identity.filter(lambda a: a != ident), max_size=3))
        amb_field = draw(st.sampled_from(["", "\t-", "\t" + ",".join(map(str, sorted(amb)))]))
        role = draw(st.sampled_from(["query", "gallery"]))
        lines.append(f"{role}\t{tid}\t{ident}\t{draw(st.integers(0, 9))}{amb_field}")
        lines += draw(st.lists(st.sampled_from(["", "# note", "  "]), max_size=1))
    return lines


@st.composite
def malformed_metadata(draw, earlier: list[str]) -> bytes | str:
    fields = ["query", str(draw(st.integers(10**7, 10**8))), str(draw(identity)), str(draw(identity)), "-"]
    kind = draw(st.sampled_from(["count", "role", "int", "ambiguous", "negative", "own", "repeat", "utf8"]))
    if kind == "count":
        fields = (fields + draw(st.lists(field_text, min_size=3, max_size=3)))[: draw(st.sampled_from([1, 2, 3, 6, 7]))]
    elif kind == "role":
        fields[0] = draw(field_text.filter(lambda r: r not in ("query", "gallery") and not r.startswith("#")))
    elif kind == "int":
        fields[draw(st.integers(1, 3))] = draw(non_int)
    elif kind == "ambiguous":
        fields[4] = ",".join([str(draw(identity)), draw(non_int.filter(lambda s: s.strip() and "," not in s))])
    elif kind == "negative":
        fields[2] = str(draw(negative))
    elif kind == "own":
        fields[4] = ",".join(sorted({fields[2], *map(str, draw(st.sets(identity, max_size=2)))}))
    elif kind == "repeat":
        records = [ln for ln in earlier if ln and not ln.startswith(("#", " "))]
        if records:
            fields[:2] = draw(st.sampled_from(records)).split("\t")[:2]
        else:
            fields[2] = str(draw(negative))
    line = "\t".join(fields)
    return draw(undecodable(line)) if kind == "utf8" else line


class TestMetadataFuzz:
    @FUZZ
    @given(data=st.data())
    def test_malformed_record_rejected_at_its_line(self, fuzz_dir, data):
        path = fuzz_dir / "meta.tsv"
        lines = data.draw(metadata_lines())
        at = data.draw(st.integers(0, len(lines)))
        _write(path, lines[:at] + [data.draw(malformed_metadata(lines[:at]))] + lines[at:])
        _assert_rejected_at(ev.read_metadata_file, path, at + 1)

    @FUZZ
    @given(lines=metadata_lines(), last=line_text)
    def test_arbitrary_record_parses_or_rejected_at_its_line(self, fuzz_dir, lines, last):
        path = fuzz_dir / "meta.tsv"
        _write(path, lines + [last])
        _parses_or_rejected_at(ev.read_metadata_file, path, len(lines) + 1)

    @pytest.mark.parametrize("record, message", [
        ("query\t1\t-2\t0", "tracklet 1: negative identity -2"),
        ("gallery\t1\t5\t0\t3,5", "tracklet 1: primary identity in its own ambiguity set"),
    ], ids=["negative-identity", "own-ambiguity"])
    def test_tracklet_error_names_path_and_line(self, tmp_path, record, message):
        path = tmp_path / "meta.tsv"
        _write(path, ["# role, tid, identity, camera, ambiguous ids", record])
        with pytest.raises(ValidationError) as exc:
            ev.read_metadata_file(path)
        assert str(exc.value) == f"{path}:2: {message}"


# ---------------------------------------------------------------------------
# corrections: VERSION n | RELABEL tid id | AMBIG tid id | DUPDIST tid_a tid_b


@st.composite
def correction_lines(draw) -> list[str]:
    """Valid records that cannot conflict: RELABEL and AMBIG name disjoint tids."""
    lines = []
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["VERSION", "relabel", "RELABEL", "AMBIG", "DUPDIST", "#", ""]))
        if kind == "VERSION":
            lines.append(f"VERSION {draw(st.integers(0, 99))}")
        elif kind.upper() == "RELABEL":
            lines.append(f"{kind} {i} {draw(identity)}")
        elif kind == "AMBIG":
            lines.append(f"AMBIG {1000 + draw(st.integers(0, 9))} {draw(identity)}")
        elif kind == "DUPDIST":
            a, b = draw(st.lists(st.integers(0, 99), min_size=2, max_size=2, unique=True))
            lines.append(f"DUPDIST {a} {b}")
        else:
            lines.append(kind and "# revision note")
    return lines


@st.composite
def malformed_correction(draw) -> tuple[list[str], bytes | str]:
    """(records the malformed one needs before it, the malformed record)."""
    tid, new_id = draw(st.integers(2000, 3000)), draw(identity)
    kind = draw(st.sampled_from(["keyword", "arity", "int", "negative", "relabel-twice", "self-dup",
                                 "ambig-after-relabel", "relabel-after-ambig", "utf8"]))
    if kind == "keyword":
        word = draw(field_text.filter(lambda w: w.strip() and not w.strip().startswith("#")
                                      and w.split()[0].upper() not in ("VERSION", "RELABEL", "AMBIG", "DUPDIST")))
        return [], f"{word} {tid} {new_id}"
    if kind == "arity":
        word = draw(st.sampled_from(["VERSION", "RELABEL", "AMBIG", "DUPDIST"]))
        n = draw(st.sampled_from([0, 3] if word == "VERSION" else [0, 1, 3]))
        return [], " ".join([word] + [str(draw(identity)) for _ in range(n)])
    if kind == "int":
        word = draw(st.sampled_from(["VERSION", "RELABEL", "AMBIG", "DUPDIST"]))
        args = [str(tid), str(new_id)][: 1 if word == "VERSION" else 2]
        args[draw(st.integers(0, len(args) - 1))] = draw(non_int.filter(lambda s: s.strip() and len(s.split()) == 1))
        return [], " ".join([word] + args)
    if kind == "negative":
        return [], f"RELABEL {tid} {draw(negative)}"
    if kind == "self-dup":
        return [], f"DUPDIST {tid} {tid}"
    pair = f"{tid} {new_id}"
    if kind == "utf8":
        return [], draw(undecodable(f"RELABEL {pair}"))
    first, second = {  # a conflict: the second record is the malformed one
        "relabel-twice": (f"RELABEL {pair}", f"RELABEL {tid} {new_id + 1}"),
        "ambig-after-relabel": (f"RELABEL {pair}", f"AMBIG {pair}"),
        "relabel-after-ambig": (f"AMBIG {pair}", f"RELABEL {pair}"),
    }[kind]
    return [first], second


class TestCorrectionsFuzz:
    @FUZZ
    @given(data=st.data())
    def test_malformed_record_rejected_at_its_line(self, fuzz_dir, data):
        path = fuzz_dir / "corr.txt"
        lines = data.draw(correction_lines())
        at = data.draw(st.integers(0, len(lines)))
        before, bad = data.draw(malformed_correction())
        head = lines[:at] + before
        _write(path, head + [bad] + lines[at:])
        _assert_rejected_at(ev.read_corrections_file, path, len(head) + 1)

    @FUZZ
    @given(lines=correction_lines(), last=line_text)
    def test_arbitrary_record_parses_or_rejected_at_its_line(self, fuzz_dir, lines, last):
        path = fuzz_dir / "corr.txt"
        _write(path, lines + [last])
        _parses_or_rejected_at(ev.read_corrections_file, path, len(lines) + 1)

    @pytest.mark.parametrize("records, message", [
        (["VERSION 1", "RELABEL 7 -3"], "RELABEL 7 -> invalid identity -3"),
        (["RELABEL 7 3", "AMBIG 7 3"], "tracklet 7: relabel target 3 also in its ambiguity set"),
        (["AMBIG 7 3", "RELABEL 7 3"], "tracklet 7: relabel target 3 also in its ambiguity set"),
    ], ids=["negative", "ambig-after-relabel", "relabel-after-ambig"])
    def test_relabel_error_names_its_line(self, tmp_path, records, message):
        path = tmp_path / "corr.txt"
        _write(path, records)
        with pytest.raises(ValidationError) as exc:
            ev.read_corrections_file(path)
        assert str(exc.value) == f"{path}:2: {message}"


# ---------------------------------------------------------------------------
# candidates: header D=<dim>, then tid, frame, x, y, w, h, confidence, D features

DIM = 2
finite = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def candidate_lines(draw) -> list[str]:
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        fields = [draw(st.integers(0, 9)), draw(st.integers(0, 9)), draw(finite), draw(finite),
                  draw(st.floats(0.5, 100)), draw(st.floats(0.5, 100)), draw(st.floats(0, 1)),
                  *(draw(finite) for _ in range(DIM))]
        lines.append("\t".join(map(repr, fields)))
        lines += draw(st.lists(st.sampled_from(["", "  "]), max_size=1))
    return lines


@st.composite
def malformed_candidate(draw) -> bytes | str:
    fields = ["3", "1", "2.0", "2.0", "8.0", "24.0", "0.9", "1.0", "0.0"]
    kind = draw(st.sampled_from(["count", "number", "integer", "frame", "non-finite", "degenerate", "confidence",
                                 "utf8"]))
    if kind == "count":
        n = draw(st.integers(1, 12).filter(lambda n: n != 7 + DIM))
        fields = (fields + draw(st.lists(field_text, min_size=3, max_size=3)))[:n]
    elif kind == "number":
        fields[draw(st.integers(0, 6 + DIM))] = draw(non_float)
    elif kind == "integer":  # tid and frame are integers
        fields[draw(st.integers(0, 1))] = repr(draw(finite.filter(lambda v: v != int(v))))
    elif kind == "frame":  # frame indices start at 0; the upper bound is the frame count, known at align
        fields[1] = str(draw(negative))
    elif kind == "non-finite":
        fields[draw(st.integers(2, 6 + DIM))] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400"]))
    elif kind == "degenerate":
        fields[draw(st.integers(4, 5))] = repr(draw(st.floats(-100, 0)))
    elif kind == "confidence":
        fields[6] = repr(draw(st.one_of(st.floats(max_value=-1e-9), st.floats(min_value=1 + 1e-9))
                              .filter(math.isfinite)))
    line = "\t".join(fields)
    return draw(undecodable(line)) if kind == "utf8" else line


def _good_header(header: bytes | str) -> bool:
    return isinstance(header, str) and header.startswith("D=") and not _not_int(header[2:]) and int(header[2:]) >= 0


class TestCandidateFuzz:
    @FUZZ
    @given(data=st.data())
    def test_malformed_record_rejected_at_its_line(self, fuzz_dir, data):
        path = fuzz_dir / "cands.tsv"
        lines = data.draw(candidate_lines())
        at = data.draw(st.integers(0, len(lines)))
        _write(path, [f"D={DIM}"] + lines[:at] + [data.draw(malformed_candidate())] + lines[at:])
        _assert_rejected_at(dl.read_candidate_file, path, at + 2)

    @FUZZ
    @given(lines=candidate_lines(), last=line_text)
    def test_arbitrary_record_parses_or_rejected_at_its_line(self, fuzz_dir, lines, last):
        path = fuzz_dir / "cands.tsv"
        _write(path, [f"D={DIM}"] + lines + [last])
        _parses_or_rejected_at(dl.read_candidate_file, path, len(lines) + 2)

    @FUZZ
    @given(header=st.one_of(line_text, st.builds("D={}".format, st.one_of(non_int, negative)), undecodable("D=2"))
           .filter(lambda h: not _good_header(h)),
           lines=candidate_lines())
    def test_bad_header_rejected_at_line_one(self, fuzz_dir, header, lines):
        path = fuzz_dir / "cands.tsv"
        _write(path, [header] + lines)
        _assert_rejected_at(dl.read_candidate_file, path, 1)

    def test_negative_dim_rejected_at_line_one(self, tmp_path):
        path = tmp_path / "cands.tsv"
        _write(path, ["D=-1", "3\t1\t2\t2\t8\t24"])
        with pytest.raises(ValidationError) as exc:
            dl.read_candidate_file(path)
        assert str(exc.value) == f"{path}:1: negative feature dim -1"
