import math
import random

import pytest
from _corpus import view

from trialforge.errors import MalformedXml, SelfLoop
from trialforge.relations import (
    assemble_graph,
    classify_reference_section,
    extract_nct_links,
    extract_review_references,
    write_relation_counts_tsv,
    write_relations_tsv,
)
from trialforge.schema import RelationTriple, Source, decode_record
from trialforge.store import read_tsv, table_row, write_database
from trialforge.views import Article


REVIEW_XML = """<article>
  <back>
    <ref-list>
      <title>References</title>
      <ref-list>
        <title>References to studies included in this review</title>
        <ref id="r1">
          <mixed-citation>Smith J. Lamotrigine maintenance trial (NCT00000150). Lancet 1999.
            <pub-id pub-id-type="pmid">20696552</pub-id>
          </mixed-citation>
        </ref>
        <ref id="r2">
          <mixed-citation>Jones A. Second included study.
            <pub-id pub-id-type="pmid">2612495</pub-id>
          </mixed-citation>
        </ref>
      </ref-list>
      <ref-list>
        <title>References to studies excluded from this review</title>
        <ref id="r3">
          <mixed-citation>Brown B. Open-label extension.
            <pub-id pub-id-type="pmid">31000001</pub-id>
          </mixed-citation>
        </ref>
      </ref-list>
      <ref-list>
        <title>References to studies awaiting assessment</title>
        <ref id="r4">
          <mixed-citation>Garcia C. Conference abstract only.
            <pub-id pub-id-type="pmid">31000002</pub-id>
          </mixed-citation>
        </ref>
      </ref-list>
      <ref-list>
        <title>Additional references</title>
        <ref id="r5">
          <mixed-citation>Methods handbook, 3rd edition.
            <pub-id pub-id-type="pmid">31000003</pub-id>
          </mixed-citation>
        </ref>
        <ref id="r6">
          <mixed-citation>Registry entry without a PMID, see NCT00061594.</mixed-citation>
        </ref>
      </ref-list>
    </ref-list>
  </back>
</article>
"""


class TestSectionClassifier:
    @pytest.mark.parametrize(
        ("title", "expected"),
        [
            ("References to studies included in this review", "include"),
            ("References to studies excluded from this review", "exclude"),
            ("References to studies awaiting assessment", "awaiting"),
            ("Studies awaiting classification", "awaiting"),
            ("Additional references", "cite"),
            ("Other published versions of this review", "cite"),
            ("", "cite"),
        ],
    )
    def test_titles(self, title, expected):
        assert classify_reference_section(title) == expected


class TestReviewReferences:
    def test_sections_and_nct_side_channel(self):
        triples = extract_review_references("38078494", REVIEW_XML)
        expected = [
            RelationTriple("38078494", "include", "20696552", Source.PUBMED, Source.PUBMED),
            RelationTriple("38078494", "include", "NCT00000150", Source.PUBMED, Source.CTGOV),
            RelationTriple("38078494", "include", "2612495", Source.PUBMED, Source.PUBMED),
            RelationTriple("38078494", "exclude", "31000001", Source.PUBMED, Source.PUBMED),
            RelationTriple("38078494", "awaiting", "31000002", Source.PUBMED, Source.PUBMED),
            RelationTriple("38078494", "cite", "31000003", Source.PUBMED, Source.PUBMED),
            RelationTriple("38078494", "cite", "NCT00061594", Source.PUBMED, Source.CTGOV),
        ]
        assert triples == expected

    def test_awaiting_folded_into_cite(self):
        triples = extract_review_references("38078494", REVIEW_XML, awaiting="cite")
        relations = {t.tail_id: t.relation_type for t in triples}
        assert relations["31000002"] == "cite"

    def test_awaiting_dropped(self):
        triples = extract_review_references("38078494", REVIEW_XML, awaiting="drop")
        assert all(t.tail_id != "31000002" for t in triples)
        assert all(t.relation_type != "awaiting" for t in triples)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            extract_review_references("1", REVIEW_XML, awaiting="fold")

    def test_malformed_xml(self):
        with pytest.raises(MalformedXml):
            extract_review_references("1", "<article><back>")

    def test_no_reference_sections(self):
        assert extract_review_references("1", "<article><body/></article>") == []


class TestNctLinks:
    def test_accession_number(self):
        record = view(Article, {"pmid": "123", "accession_numbers": ["NCT01234567"]})
        assert extract_nct_links(record) == [
            RelationTriple("123", "linked_to", "NCT01234567", Source.PUBMED, Source.CTGOV)
        ]

    def test_abstract_pattern(self):
        record = view(Article, {"pmid": "123", "abstract": "The trial was registered as NCT00004563."})
        triples = extract_nct_links(record)
        assert [t.tail_id for t in triples] == ["NCT00004563"]

    def test_union_dedupes(self):
        record = view(Article, {
            "pmid": "123",
            "accession_numbers": ["NCT00004563"],
            "abstract": "Registered as NCT00004563 and NCT00056836.",
        })
        triples = extract_nct_links(record)
        assert [t.tail_id for t in triples] == ["NCT00004563", "NCT00056836"]

    def test_near_miss_patterns_ignored(self):
        record = view(Article, {"pmid": "9", "abstract": "See NCT0000015 and NCT000001501X and ANCT00000150."})
        # 7 digits, 9 digits-with-suffix boundary still matches inner id, leading letter breaks \b
        triples = extract_nct_links(record)
        assert [t.tail_id for t in triples] == []

    def test_no_pmid(self):
        # an article without a PMID is refused when read, so it links nothing
        with pytest.raises(ValueError, match="entry 0 has no 'pmid'"):
            view(Article, {"abstract": "NCT00000150"})


def triple(head, relation, tail):
    return RelationTriple(head, relation, tail, Source.PUBMED, Source.PUBMED)


class TestAssembleGraph:
    def test_duplicate_collapses(self):
        edge = triple("1", "cite", "2")
        graph = assemble_graph([edge, edge])
        assert len(graph) == 1
        assert graph.type_counts == {"cite": 1}

    def test_counts_and_percentages(self):
        triples = [
            triple("10", "include", "1"),
            triple("10", "include", "2"),
            triple("10", "include", "3"),
            triple("10", "cite", "4"),
        ]
        graph = assemble_graph(triples, review_ids={"10"})
        assert graph.type_counts == {"include": 3, "cite": 1}
        assert set(graph.percentages.values()) == {75.0, 25.0}
        assert graph.dangling_heads == ()

    def test_self_loop_names_offender(self):
        with pytest.raises(SelfLoop) as excinfo:
            assemble_graph([triple("x", "linked_to", "x")])
        assert "(x, linked_to, x)" in str(excinfo.value)

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            assemble_graph([triple("1", "link_to", "2")])

    def test_permutation_invariant_and_idempotent(self):
        rng = random.Random(42)
        triples = [triple(str(i), "cite", str(i + 100)) for i in range(20)]
        triples += [triple("500", "include", str(i)) for i in range(5)]
        shuffled = triples[:]
        rng.shuffle(shuffled)
        first = assemble_graph(triples, review_ids={"500"})
        second = assemble_graph(shuffled, review_ids={"500"})
        assert first == second
        again = assemble_graph(list(first.triples), review_ids={"500"})
        assert again == first

    def test_percentage_sum_under_fuzz(self):
        rng = random.Random(99)
        relations = ["include", "exclude", "cite", "awaiting", "linked_to"]
        sources = [Source.PUBMED, Source.CTGOV, Source.ISRCTN]
        for _ in range(40):
            triples = [
                RelationTriple(
                    f"h{rng.randint(0, 30)}",
                    rng.choice(relations),
                    f"t{rng.randint(0, 30)}",
                    rng.choice(sources),
                    rng.choice(sources),
                )
                for _ in range(rng.randint(1, 60))
            ]
            graph = assemble_graph(triples)
            assert abs(math.fsum(graph.percentages.values()) - 100.0) <= 0.01

    def test_dangling_include_head_reported_not_dropped(self):
        triples = [triple("999", "include", "1"), triple("10", "exclude", "2")]
        graph = assemble_graph(triples, review_ids={"10"})
        assert graph.dangling_heads == ("999",)
        assert len(graph) == 2

    def test_no_review_set_skips_check(self):
        graph = assemble_graph([triple("999", "include", "1")])
        assert graph.dangling_heads == ()

    def test_empty_input(self):
        graph = assemble_graph([])
        assert len(graph) == 0
        assert graph.percentages == {}


class TestExports:
    def test_relations_tsv(self, tmp_path):
        graph = assemble_graph(
            [
                RelationTriple("123", "linked_to", "NCT00000150", Source.PUBMED, Source.CTGOV),
                triple("10", "cite", "20"),
            ]
        )
        path = tmp_path / "relations.tsv"
        write_relations_tsv(graph, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "head_id\trelation_type\ttail_id\tsources"
        assert "123\tlinked_to\tNCT00000150\tPUBMED->CTGOV" in lines
        for t in graph.triples:
            assert decode_record(RelationTriple, table_row("relations", t)) == t

    def test_cells_escaped_as_in_database(self, tmp_path):
        edge = RelationTriple("ACTRN126\t0001", "linked_to", "111", Source.ANZCTR, Source.PUBMED)
        graph = assemble_graph([edge])
        write_relations_tsv(graph, tmp_path / "relations.tsv")
        write_database({"relations": [table_row("relations", edge)]}, tmp_path / "db")
        line = (tmp_path / "relations.tsv").read_text().splitlines()[1]
        db_line = (tmp_path / "db" / "relations.tsv").read_text().splitlines()[1]
        assert line == "ACTRN126\\t0001\tlinked_to\t111\tANZCTR->PUBMED"
        assert line.split("\t")[:3] == db_line.split("\t")[:3]
        assert read_tsv(tmp_path / "relations.tsv")[1] == [["ACTRN126\t0001", "linked_to", "111", "ANZCTR->PUBMED"]]

    def test_counts_tsv(self, tmp_path):
        graph = assemble_graph(
            [
                triple("10", "include", "1"),
                triple("10", "include", "2"),
                triple("10", "include", "3"),
                triple("10", "cite", "4"),
            ]
        )
        path = tmp_path / "counts.tsv"
        write_relation_counts_tsv(graph, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "head_source\trelation_type\ttail_source\tcount\tpercentage"
        assert "PUBMED\tinclude\tPUBMED\t3\t75.000" in lines
        assert "PUBMED\tcite\tPUBMED\t1\t25.000" in lines
