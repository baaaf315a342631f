"""CPL text of the benchmarked queries and the seeded Section 2 query mix.

The DOE query and its two defines are the paper's Fig. 1 / Section 3
program, spelled exactly as ``benchmarks/bench_doe_query.py`` spells them.
The Publication templates are the Section 2 comprehensions; each carries
one or two constants dealt from seeded, shuffled decks, so a seed fixes
the whole sequence of queries a client sends.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, NamedTuple, Sequence

LOCI22 = '''
define Loci22 == {[locus-symbol = x, genbank-ref = y] |
  [locus_symbol = \\x, locus_id = \\a, ...] <- GDB-Tab("locus"),
  [genbank_ref = \\y, object_id = a, object_class_key = 1, ...] <- GDB-Tab("object_genbank_eref"),
  [loc_cyto_chrom_num = "22", locus_cyto_location_id = a, ...] <- GDB-Tab("locus_cyto_location")}
'''

ASN_IDS = '''
define ASN-IDs == \\accession =>
  GenBank([db = "na", select = "accession " ^ accession, path = "Seq-entry.seq.id..giim"])
'''

DOE = ('{[locus = locus, homologs = NA-Links(uid)] |'
       ' \\locus <- Loci22, \\uid <- ASN-IDs(locus.genbank-ref)}')

JNAME = '''
define jname ==
   <uncontrolled = \\s> => s
 | <controlled = <medline-jta = \\s>> => s
 | <controlled = <iso-jta = \\s>> => s
 | <controlled = <journal-title = \\s>> => s
 | <controlled = <issn = \\s>> => s
'''

#: Years and topics ``repro.bio.publications.build_publications`` draws
#: from, and the range of its volume numbers.
YEARS = range(1985, 1996)
TOPICS = ("perforin", "immunoglobulin lambda locus", "BCR region", "NF2 gene",
          "cosmid contig mapping", "CpG island detection", "exon prediction",
          "YAC library screening", "somatic cell hybrid mapping")
VOLUMES = range(1, 301)


class PubQuery(NamedTuple):
    """One drawn query: its CPL text, and whether it is fetched by cursor."""

    text: str
    streamed: bool


def _projection(rng: random.Random) -> PubQuery:
    year = rng.choice(YEARS)
    return PubQuery('{[title = p.title, authors = p.authors] | '
                    f'\\p <- DB, p.year = {year}}}', False)


def _pattern(rng: random.Random) -> PubQuery:
    volume = rng.choice(VOLUMES)
    return PubQuery('{[title = t, year = y] | '
                    f'[title = \\t, year = \\y, volume = "{volume}", ...] <- DB}}',
                    False)


def _selection(rng: random.Random) -> PubQuery:
    year = rng.choice(YEARS)
    topic = rng.choice(TOPICS)
    return PubQuery(f'{{p.title | \\p <- DB, p.year >= {year}, '
                    f'string_contains(p.abstract, "{topic}")}}', False)


def _flatten(rng: random.Random) -> PubQuery:
    year = rng.choice(YEARS)
    return PubQuery('{[title = t, keyword = k] | '
                    '[title = \\t, year = \\y, keywd = \\kk, ...] <- DB, '
                    f'y >= {year}, \\k <- kk}}', True)


def _jname(rng: random.Random) -> PubQuery:
    volume = rng.choice(VOLUMES)
    return PubQuery('{[title = t, name = jname(v)] | '
                    f'[title = \\t, journal = \\v, volume = "{volume}", ...] <- DB}}',
                    False)


TEMPLATES = (_projection, _pattern, _selection, _flatten, _jname)


def every_pub_query() -> List[PubQuery]:
    """Every distinct query the templates can draw (reference answers)."""
    queries = []
    queries += [_projection(_Fixed(year)) for year in YEARS]
    queries += [_pattern(_Fixed(volume)) for volume in VOLUMES]
    queries += [_selection(_Fixed(year, topic))
                for year in YEARS for topic in TOPICS]
    queries += [_flatten(_Fixed(year)) for year in YEARS]
    queries += [_jname(_Fixed(volume)) for volume in VOLUMES]
    return queries


def pub_query_stream(seed: int) -> Iterator[PubQuery]:
    """The endless query sequence a seed deals.

    Templates come in shuffled rounds of all five, and each template deals
    its constants from decks of every value, reshuffled when empty.  So
    every seed sends each query about equally often and only the order
    differs.  Drawn independently, the counts moved the mix's p90, which
    falls among flatten queries whose cost rises steeply with the
    number of years they keep.
    """
    rng = random.Random(f"pubs-{seed}")
    dealers = {template: _Dealer(rng) for template in TEMPLATES}
    rounds = list(TEMPLATES)
    while True:
        rng.shuffle(rounds)
        for template in rounds:
            yield template(dealers[template])


class _Dealer:
    """A stand-in for ``random.Random`` whose ``choice`` deals each option
    once, in a seeded shuffled order, before any option comes again."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._decks: Dict[Sequence, list] = {}

    def choice(self, options: Sequence):
        deck = self._decks.setdefault(options, [])
        if not deck:
            deck.extend(options)
            self._rng.shuffle(deck)
        return deck.pop()


class _Fixed:
    """A stand-in for ``random.Random`` whose ``choice`` returns given values
    in order, so :func:`every_pub_query` reuses the template functions."""

    def __init__(self, *values):
        self._values = list(values)

    def choice(self, _options):
        return self._values.pop(0)
