"""The scenario catalogue pinned without running it: the `Scenario.digest()`
list of every family at n=4 and n=5, and of the acceptance suite's ghost
cases, each pinned as the `util.digest` of the list.  A change here
changes what the acceptance suite and `scripts/bounds.py` check."""

from slidenet.scenarios import FAMILIES
from slidenet.util import digest
from test_acceptance import GHOST

PINNED = {
    ("honest", 4): "027a0b5a6c75ac2f", ("honest", 5): "165163dd75bc1dba",
    ("attack", 4): "da3060d51f4632a4", ("attack", 5): "68f4e4f6c4847e79",
    ("throughput", 4): "10330cfb0958d296",
    ("throughput", 5): "eace0feca1a8818e",
    ("ghost", 4): "62c47446cca2d576", ("ghost", 5): "f0deb3e488a2c741",
}


def test_catalogue_digests_pinned():
    families = {**FAMILIES, "ghost": lambda n: [GHOST[n]()]}
    lists = {(name, n): tuple(sc.digest() for sc in family(n))
             for name, family in families.items() for n in (4, 5)}
    assert {key: digest(value) for key, value in lists.items()} == PINNED, \
        lists
