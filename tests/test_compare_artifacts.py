"""tools/compare_artifacts.py names the key paths where two JSON artifacts differ,
counts them by pattern, and counts the rows where two CSV artifacts differ."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from compare_artifacts import differing_keys, differing_patterns, differing_rows  # noqa: E402


def test_differing_keys_name_leaf_paths():
    base = {"k": 3, "silhouette_by_k": {"2": 0.5, "5": 0.25}, "medoid_ids": ["a", "b"]}
    change = {"k": 3, "silhouette_by_k": {"2": 0.5, "5": 0.26}, "medoid_ids": ["a", "c", "d"],
              "extra": None}
    assert differing_keys(base, change) == ["extra", "medoid_ids.1", "medoid_ids.2",
                                            "silhouette_by_k.5"]
    assert differing_keys(base, base) == []
    assert differing_keys([1], {"0": 1}) == ["(root)"]


def test_differing_patterns_count_values_once_per_pattern():
    base = {"classes": [0, 1, 2], "weights": [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
            "biases": [0.0, 0.0, 0.0], "silhouette_by_k": {"2": 0.5, "5": 0.25}}
    change = {"classes": [0, 1, 2], "weights": [[0.1, 0.3], [0.2, 0.4], [0.6, 0.5]],
              "biases": [0.0, 0.1, 0.0], "silhouette_by_k": {"2": 0.5, "5": 0.26}}
    assert list(differing_patterns(base, change).items()) == [
        ("biases.*", 1), ("silhouette_by_k.5", 1), ("weights.*.*", 4)]
    assert differing_patterns(base, base) == {}
    assert differing_patterns({"ids": ["a"]}, {"ids": ["a", "b", "c"]}) == {"ids.*": 2}
    assert differing_patterns([1], {"0": 1}) == {"(root)": 1}


def test_differing_rows_count_rows_after_the_header():
    base = "post_id,topic\np1,0\np2,1\np3,2\n"
    assert differing_rows(base, base) == (0, 3)
    assert differing_rows(base, "post_id,topic\np1,0\np2,2\np3,2\n") == (1, 3)
    assert differing_rows(base, "post_id,topic\np1,0\np2,1\n") == (1, 3)
    assert differing_rows(base, 'post_id,topic\n"p1",0\np2,1\np3,2\np4,0\n') == (1, 4)
    assert differing_rows("id,topic\n", "id,topic\n") == (0, 0)
