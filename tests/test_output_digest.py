"""``tools/output_digest.py --against``: the cell-by-cell comparison of two outputs."""

import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
_SPEC = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digest)

TABLE = "# quantum\nt,x_cm\n0,0.5\n0.1,0.25\n# deviation\nmetric,value\nmax_x_deviation,1e-11\n"


def test_identical_outputs_have_no_differing_cell():
    assert output_digest.cell_differences(TABLE, TABLE) == (0, 0.0, 0.0, {})


def test_differing_cells_are_counted_with_their_largest_differences():
    moved = TABLE.replace("0.25", "0.2500000000001").replace("1e-11", "1.5e-11")
    cells, relative, absolute, _ = output_digest.cell_differences(moved, TABLE)
    assert cells == 2
    assert math.isclose(relative, 0.5e-11 / 1.5e-11)
    assert math.isclose(absolute, 0.5e-11)


def test_text_cells_and_reshaped_outputs_read_inf():
    renamed = TABLE.replace("metric", "name").replace("0.25", "0.3")
    assert output_digest.cell_differences(renamed, TABLE)[:3] == (2, math.inf, math.inf)
    assert output_digest.cell_differences(TABLE, "")[1:] == (math.inf, math.inf, {})
    assert output_digest.cell_differences(TABLE + "extra\n", TABLE)[1:] == (math.inf, math.inf, {})


def test_differing_cells_are_named_by_table_and_column():
    # a rounding-level move is shown to stay out of the trajectory tables
    moved = TABLE.replace("1e-11", "1.5e-11").replace("metric", "name")
    assert output_digest.cell_differences(moved, TABLE)[3] == {"deviation.value": 1,
                                                                "deviation": 1}
    lone = "N,eps\n1,0.5\n2,0.25\n"
    assert output_digest.cell_differences(lone.replace("0.25", "0.3"), lone)[3] == {"eps": 1}
    moved = TABLE.replace("0.25", "0.3").replace("0.5", "0.6")
    assert output_digest.cell_differences(moved, TABLE)[3] == {"quantum.x_cm": 2}
