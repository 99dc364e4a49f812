"""Writers for the evaluation file formats, used to build test fixtures.

The library and the CLI only read these formats."""

from pathlib import Path


def write_metadata_file(path, queries, gallery) -> None:
    """The tab-separated metadata format ``evaluate.read_metadata_file`` reads."""
    lines = []
    for role, metas in (("query", queries), ("gallery", gallery)):
        for m in metas:
            amb = ",".join(str(i) for i in sorted(m.ambiguous_ids)) or "-"
            lines.append(f"{role}\t{m.tid}\t{m.identity}\t{m.camera}\t{amb}")
    Path(path).write_text("\n".join(lines) + "\n")
