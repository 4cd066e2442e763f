import math
import os
import threading

import pytest

from pareto_forge import (
    CASE_STUDY_BOUNDS,
    Bounds,
    DatasetError,
    ExperimentRecord,
    load_experiments,
    save_experiments,
    validate_records,
)


def test_builtin_has_27_runs(records):
    assert len(records) == 27


def test_builtin_known_rows(records):
    assert records[0] == ExperimentRecord(78, 0.04, 0.2, 2.23, 730)
    # run 9 keeps the published mrr of 5760 even though 8760 would fit the pattern
    assert records[8] == ExperimentRecord(78, 0.16, 0.6, 2.62, 5760)
    assert records[26] == ExperimentRecord(314, 0.16, 0.6, 0.82, 35040)


def test_builtin_passes_validation(records):
    assert validate_records(records, CASE_STUDY_BOUNDS) == ()


def test_csv_roundtrip(tmp_path, records):
    path = tmp_path / "runs.csv"
    save_experiments(path, records)
    assert load_experiments(path) == records


def test_load_case_study_csv(tmp_path, records):
    path = tmp_path / "runs.csv"
    save_experiments(path, records)
    loaded = load_experiments(path)
    assert loaded[0].point == (78, 0.04, 0.2)
    assert loaded[0].ra == 2.23 and loaded[0].mrr == 730


def test_load_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="no such file"):
        load_experiments(tmp_path / "nope.csv")


def test_load_unreadable_path_is_a_dataset_error(tmp_path):
    with pytest.raises(DatasetError, match="cannot read"):
        load_experiments(tmp_path)


def test_load_from_a_pipe(tmp_path, records):
    # a FIFO exists but is not a regular file, as with --data <(cat runs.csv)
    fifo = tmp_path / "runs.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=save_experiments, args=(fifo, records))
    writer.start()
    try:
        assert load_experiments(fifo) == records
    finally:
        # a writer that wrote everything can still be alive for a moment after the load
        writer.join(timeout=10)
        if writer.is_alive():
            fifo.read_bytes()  # the pipe was never opened: let the writer finish
        writer.join()


def test_load_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("vc,fz,t,ra,mrr\n")
    with pytest.raises(DatasetError, match="empty dataset"):
        load_experiments(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DatasetError, match="empty file"):
        load_experiments(path)


def test_load_bad_cell_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("vc,fz,t,ra,mrr\n78,0.04,0.2,abc,730\n")
    with pytest.raises(DatasetError, match=r"row 1, column ra.*'abc'"):
        load_experiments(path)


def test_load_missing_column(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("vc,fz,t,ra\n78,0.04,0.2,2.23\n")
    with pytest.raises(DatasetError, match="missing columns: mrr"):
        load_experiments(path)


def test_load_extra_column(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("vc,fz,t,ra,mrr,notes\n78,0.04,0.2,2.23,730,x\n")
    with pytest.raises(DatasetError, match="extra columns: notes"):
        load_experiments(path)


def test_load_invalid_record_value(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("vc,fz,t,ra,mrr\n78,0.04,0.2,-1,730\n")
    with pytest.raises(DatasetError, match="row 1.*ra must be positive"):
        load_experiments(path)


@pytest.mark.parametrize("field,value", [("vc", math.nan), ("mrr", math.inf), ("ra", 0.0)])
def test_record_invariants(field, value):
    kwargs = dict(vc=78.0, fz=0.04, t=0.2, ra=2.23, mrr=730.0)
    kwargs[field] = value
    with pytest.raises(ValueError):
        ExperimentRecord(**kwargs)


def test_bounds_must_be_ordered():
    with pytest.raises(ValueError, match="lower bound"):
        Bounds((78, 0.2, 0.2), (314, 0.16, 0.6))


def test_bounds_helpers():
    b = CASE_STUDY_BOUNDS
    assert b.center == (196.0, 0.1, 0.4)
    assert b.contains((78, 0.04, 0.2)) and not b.contains((77, 0.04, 0.2))


def test_validate_flags_out_of_bounds():
    violations = validate_records([ExperimentRecord(400, 0.04, 0.2, 1, 1000)], CASE_STUDY_BOUNDS)
    assert any("vc above upper bound" in v.message for v in violations)


def test_validate_flags_below_bounds():
    violations = validate_records([ExperimentRecord(100, 0.01, 0.2, 1, 1000)], CASE_STUDY_BOUNDS)
    assert any("fz below lower bound" in v.message for v in violations)


def test_validate_empty_list():
    assert validate_records([], CASE_STUDY_BOUNDS) == ()
