"""The comparator of ``compare_outputs.py``: identical outcomes give no
difference, and each kind of difference is named."""

from pathlib import Path

from compare_outputs import CONFIGS, Outcome, differences, written_files


def _tree(root: Path, files: dict[str, bytes]) -> dict[str, bytes]:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return written_files(root)


FILES = {"out/summary.txt": b"exit_status = 0\n", "out/cell_0_0/trajectory.csv": b"k,tau_k\r\n"}


def test_identical_trees_report_nothing(tmp_path):
    old = Outcome(0, b"ok\n", b"", _tree(tmp_path / "old", FILES))
    new = Outcome(0, b"ok\n", b"", _tree(tmp_path / "new", FILES))
    assert old.files == FILES
    assert differences(old, new) == []


def test_each_difference_is_named(tmp_path):
    old = Outcome(0, b"ok\n", b"", _tree(tmp_path / "old", FILES))
    flipped = dict(FILES, **{"out/summary.txt": b"exit_status = 1\n"})
    assert differences(old, Outcome(0, b"ok\n", b"", _tree(tmp_path / "flip", flipped))) == [
        "out/summary.txt differs, first at byte 14 (16 vs 16 bytes)"
    ]
    missing = {"out/summary.txt": FILES["out/summary.txt"]}
    assert differences(old, Outcome(0, b"ok\n", b"", _tree(tmp_path / "miss", missing))) == [
        "out/cell_0_0/trajectory.csv missing from the new tree"
    ]
    assert differences(old, Outcome(1, b"ok\n", b"", old.files)) == ["exit code 0 vs 1"]
    assert differences(old, Outcome(0, b"ok", b"warning\n", old.files)) == [
        "stdout differs, first at byte 2 (3 vs 2 bytes)",
        "stderr differs, first at byte 0 (0 vs 8 bytes)",
    ]


def test_the_config_set_writes_to_a_relative_output():
    assert len(CONFIGS) == 21
    assert len({name for name, _, _ in CONFIGS}) == 21
    assert all(doc["output"] == "out" for _, _, doc in CONFIGS)
