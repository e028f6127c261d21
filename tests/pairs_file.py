"""Pairs-file reader shared by the test suites."""
from opendomain.matching import MatchedPairs
from opendomain.numkit import parse_tokens, read_rows, size


def load_pairs(path) -> MatchedPairs:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "pairs" or header[2] != "total":
            raise ValueError(f"{path}: malformed pairs header")
        count, total = parse_tokens(path, 1, (size, float), header[1::2])
        rows = read_rows(fh, path, count, (size, size, float))
    return MatchedPairs(pairs=tuple(map(tuple, rows[:, :2].astype(int).tolist())),
                        total_cost=total, costs=tuple(rows[:, 2].tolist()))
