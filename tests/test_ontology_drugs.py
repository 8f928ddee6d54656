import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_dedupe import reference_levenshtein

from trialforge.errors import ClientUnavailable, MalformedResponse, ReplayMiss
from trialforge.ontology.drugs import (
    FUZZY_MAX_DISTANCE,
    FUZZY_MIN_LENGTH,
    DrugEntry,
    DrugResources,
    annotate_approval,
    link_drug,
    load_drug_normalization,
    load_drug_resources,
    normalize_drug_name,
    resolve_drugbank,
    resolve_rxnorm,
)


def make_resources(**overrides) -> DrugResources:
    base = dict(
        rxnorm_local={},
        rxcui_names={},
        rxnorm_to_drugbank={},
        drugbank_names={},
        drugbank_synonyms={},
        drugbank_brands={},
        drugbank_display={},
        agency_lists={"fda": frozenset(), "ema": frozenset(), "pmda": frozenset()},
    )
    base.update(overrides)
    return DrugResources(**base)


NORMALIZATION = load_drug_normalization()


def fake_rxnorm_client(rxcui_map=None, suggestions=None):
    rxcui_map = rxcui_map or {}
    suggestions = suggestions or {}

    def client(request):
        if request["op"] == "rxcui":
            return {"rxcui": rxcui_map.get(request["name"])}
        if request["op"] == "spelling":
            return {"suggestions": suggestions.get(request["name"], [])}
        raise AssertionError(f"unexpected op {request!r}")

    return client


@pytest.fixture(scope="module")
def resources():
    return load_drug_resources()


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("aspirin therapy", "aspirin"),
            ("Metformin Tablet", "metformin"),
            ("aspirin", "aspirin"),
            ("Lucentis®  Injection", "lucentis"),
            ("HRS-5635 Injection", "hrs-5635"),
            ("Aspirin Tablet Therapy", "aspirin"),
            ("Paracetamol", "acetaminophen"),
            ("Acetylsalicylic Acid", "aspirin"),
            ("bevacizumab™ treatment", "bevacizumab"),
            ("insulin  glargine", "insulin glargine"),
            ("", ""),
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_drug_name(raw, *NORMALIZATION) == expected

    def test_substitution_applies_after_suffix_strip(self):
        # the suffix must come off before the variant table can match
        assert normalize_drug_name("Paracetamol Tablet", *NORMALIZATION) == "acetaminophen"

    @given(st.text(max_size=40))
    def test_idempotent(self, raw):
        once = normalize_drug_name(raw, *NORMALIZATION)
        assert normalize_drug_name(once, *NORMALIZATION) == once

    def test_idempotent_on_cyclic_substitutions(self):
        subs = {"a": "b", "b": "a"}
        once = normalize_drug_name("a", suffixes=(), substitutions=subs)
        assert normalize_drug_name(once, suffixes=(), substitutions=subs) == once


class TestResolveRxnorm:
    def test_local_hit_skips_client(self):
        def exploding(request):
            raise AssertionError("client must not be called on a local hit")

        assert resolve_rxnorm("aspirin", {"aspirin": "1191"}, exploding) == ("1191", "local")

    def test_no_client_degrades_to_none(self):
        assert resolve_rxnorm("unknowndrug", {}, None) == (None, "none")

    def test_remote_hit(self):
        client = fake_rxnorm_client(rxcui_map={"newdrug": "424242"})
        assert resolve_rxnorm("newdrug", {}, client) == ("424242", "remote")

    def test_spelling_suggestion_resolves_via_local(self):
        client = fake_rxnorm_client(suggestions={"asprin": ["aspirin"]})
        assert resolve_rxnorm("asprin", {"aspirin": "1191"}, client) == ("1191", "spelling-suggestion")

    def test_spelling_suggestion_resolves_via_remote(self):
        client = fake_rxnorm_client(rxcui_map={"aspirin": "1191"}, suggestions={"asprin": ["aspirin"]})
        assert resolve_rxnorm("asprin", {}, client) == ("1191", "spelling-suggestion")

    def test_all_stages_miss(self):
        client = fake_rxnorm_client(suggestions={"mystery": ["also unknown"]})
        assert resolve_rxnorm("mystery", {}, client) == (None, "none")

    # every client error `ServiceClient.call` raises
    @pytest.mark.parametrize("exc", [ReplayMiss, MalformedResponse, ClientUnavailable])
    def test_mode_errors_propagate(self, exc):
        error = exc("rxnorm:abc123")

        def failing(request):
            raise error

        with pytest.raises(exc) as excinfo:
            resolve_rxnorm("unknowndrug", {}, failing)
        assert excinfo.value is error

    def test_non_object_answer_is_malformed(self):
        with pytest.raises(MalformedResponse, match=r"^rxnorm rxcui answer for 'unknowndrug' is \[\], expected dict$"):
            resolve_rxnorm("unknowndrug", {}, lambda request: [])


def brute_force_drugbank(key: str, drugbank_names: dict) -> tuple:
    """The exact-then-fuzzy lookup the plain way: an edit distance to every primary name."""
    if key in drugbank_names:
        return drugbank_names[key], "exact"
    if len(key) < FUZZY_MIN_LENGTH:
        return None, "none"
    ranked = [
        (reference_levenshtein(key, name), db_id)
        for name, db_id in drugbank_names.items()
        if len(name) >= FUZZY_MIN_LENGTH
    ]
    best = min((rank for rank in ranked if rank[0] <= FUZZY_MAX_DISTANCE), default=None)
    return (None, "none") if best is None else (best[1], "fuzzy")


#: Few letters, so names repeat them; one accented letter, one digit, one dash.
FUZZY_ALPHABET = "abcde\u00e91-"
#: Letters an edit brings in, those no key holds first.
EDIT_LETTERS = "xy\u00fc" + FUZZY_ALPHABET


@st.composite
def fuzzy_vocabularies(draw):
    """A lookup key, and primary names made from it under a few shared ids.

    Each name puts distinct letters at up to three distinct positions of
    the key, then may insert or delete one letter.
    """
    key = draw(st.text(FUZZY_ALPHABET, min_size=3, max_size=7))
    names = {}
    for _ in range(draw(st.integers(0, 3))):
        name = list(key)
        count = draw(st.integers(0, 3))
        for at, letter in zip(draw(st.permutations(range(len(key))))[:count], draw(st.permutations(EDIT_LETTERS))):
            name[at] = letter
        edit = draw(st.sampled_from((None, "insert", "delete")))
        at = draw(st.integers(0, len(name)))
        if edit == "insert":
            name.insert(at, draw(st.sampled_from(EDIT_LETTERS)))
        elif edit == "delete":
            del name[at : at + 1]
        names["".join(name)] = draw(st.sampled_from(("DB01", "DB02", "DB03")))
    return key, names


class TestResolveDrugbank:
    def test_rxnorm_map_wins_over_exact(self):
        resources = make_resources(
            rxnorm_to_drugbank={"1191": "DB00945"},
            drugbank_names={"aspirin": "DB99999"},
        )
        assert resolve_drugbank("1191", "aspirin", resources) == ("DB00945", "rxnorm-map")

    def test_exact_then_synonym_then_brand(self):
        resources = make_resources(
            drugbank_names={"aspirin": "DB1"},
            drugbank_synonyms={"aspirin": "DB2", "asa syn": "DB2"},
            drugbank_brands={"aspirin": "DB3", "brandname": "DB3"},
        )
        assert resolve_drugbank(None, "aspirin", resources) == ("DB1", "exact")
        assert resolve_drugbank(None, "asa syn", resources) == ("DB2", "synonym")
        assert resolve_drugbank(None, "brandname", resources) == ("DB3", "brand")

    def test_fuzzy_single_edit(self):
        resources = make_resources(drugbank_names={"ibuprofen": "DB01050"})
        assert resolve_drugbank(None, "ibuprofenn", resources) == ("DB01050", "fuzzy")

    def test_fuzzy_tie_breaks_on_distance_then_id(self):
        resources = make_resources(
            drugbank_names={"probedruga": "DB0009", "probedrugab": "DB0001", "probedrugb": "DB0002"}
        )
        # distance 1 candidates: probedruga (DB0009) and probedrugb (DB0002);
        # probedrugab is distance 2 and loses even with the smallest id
        assert resolve_drugbank(None, "probedrug", resources) == ("DB0002", "fuzzy")

    def test_fuzzy_requires_min_length(self):
        resources = make_resources(drugbank_names={"abcd": "DB1", "abcde": "DB2"})
        assert resolve_drugbank(None, "abcf", resources) == (None, "none")

    @given(fuzzy_vocabularies())
    # abcxy: distance 2 by two substitutions, the character sets 2 * FUZZY_MAX_DISTANCE apart
    @example(("abcde", {"abcxy": "DB1", "abcdefg": "DB2", "abcd": "DB0"}))
    @example(("aaaaa", {"aaabb": "DB1", "aaaab": "DB3", "aaaac": "DB2"}))
    @example(("caf\u00e9s", {"caf\u00e9s!": "DB1", "cafes": "DB1", "\u00e9\u00e9fac": "DB0"}))
    def test_fuzzy_equals_the_brute_force_loop(self, case):
        key, names = case
        assert resolve_drugbank(None, key, make_resources(drugbank_names=names)) == brute_force_drugbank(key, names)

    def test_compound_code_regression_not_conflated(self, resources):
        # investigational codes with different numeric parts stay unlinked
        db_id, method = resolve_drugbank(None, "hrs-5635", resources)
        assert (db_id, method) == (None, "none")

    def test_unknown_everything(self):
        assert resolve_drugbank(None, "zzz unknown zzz", make_resources()) == (None, "none")


def stage_expectations(local_hit, remote_hit, spelling_hit, map_hit, direct_hit):
    if local_hit:
        rxcui, rx_method = "111", "local"
    elif remote_hit:
        rxcui, rx_method = "222", "remote"
    elif spelling_hit:
        rxcui, rx_method = "333", "spelling-suggestion"
    else:
        rxcui, rx_method = None, "none"
    if rxcui is not None and map_hit:
        db_id, db_method = f"DBMAP{rxcui}", "rxnorm-map"
    elif direct_hit:
        db_id, db_method = "DBDIRECT", "exact"
    else:
        db_id, db_method = None, "none"
    return rxcui, rx_method, db_id, db_method


class TestStagePrecedence:
    def test_all_32_hit_miss_combinations(self):
        name = "probedrug"
        for bits in itertools.product([False, True], repeat=5):
            local_hit, remote_hit, spelling_hit, map_hit, direct_hit = bits
            local_index = {name: "111"} if local_hit else {}
            rxcui_map = {name: "222"} if remote_hit else {}
            if spelling_hit:
                rxcui_map["probedrugvariant"] = "333"
            client = fake_rxnorm_client(rxcui_map=rxcui_map, suggestions={name: ["probedrugvariant"]})
            resources = make_resources(
                rxnorm_to_drugbank=(
                    {"111": "DBMAP111", "222": "DBMAP222", "333": "DBMAP333"} if map_hit else {}
                ),
                drugbank_names={name: "DBDIRECT"} if direct_hit else {},
            )

            rxcui, rx_method = resolve_rxnorm(name, local_index, client)
            db_id, db_method = resolve_drugbank(rxcui, name, resources)
            assert (rxcui, rx_method, db_id, db_method) == stage_expectations(*bits), bits

    def test_all_16_direct_chain_combinations(self):
        name = "probedrug"
        for bits in itertools.product([False, True], repeat=4):
            exact_hit, synonym_hit, brand_hit, fuzzy_hit = bits
            names = {}
            if exact_hit:
                names[name] = "DBEXACT"
            if fuzzy_hit:
                names["probedrugg"] = "DBFUZZY"
            resources = make_resources(
                drugbank_names=names,
                drugbank_synonyms={name: "DBSYN"} if synonym_hit else {},
                drugbank_brands={name: "DBBRAND"} if brand_hit else {},
            )
            if exact_hit:
                expected = ("DBEXACT", "exact")
            elif synonym_hit:
                expected = ("DBSYN", "synonym")
            elif brand_hit:
                expected = ("DBBRAND", "brand")
            elif fuzzy_hit:
                expected = ("DBFUZZY", "fuzzy")
            else:
                expected = (None, "none")
            assert resolve_drugbank(None, name, resources) == expected, bits


class TestApproval:
    def test_drugbank_mapped_name_only(self):
        entry = DrugEntry(
            raw_name="Some Brand",
            cleaned_name="some brand",
            rxcui=None,
            rxnorm_method="none",
            drugbank_id="DB7",
            drugbank_method="brand",
        )
        flagged = annotate_approval(
            entry,
            {"fda": frozenset(), "ema": frozenset({"realdrug"}), "pmda": frozenset()},
            drugbank_display={"DB7": "realdrug"},
        )
        assert (flagged.approved_fda, flagged.approved_ema, flagged.approved_pmda) == (False, True, False)

    def test_no_variant_matches(self):
        entry = DrugEntry("x", "x", None, "none", None, "none")
        flagged = annotate_approval(entry, {"fda": frozenset({"aspirin"})})
        assert not (flagged.approved_fda or flagged.approved_ema or flagged.approved_pmda)

    def test_cleaned_name_match(self):
        entry = DrugEntry("Aspirin Therapy", "aspirin", None, "none", None, "none")
        flagged = annotate_approval(entry, {"fda": frozenset({"aspirin"})})
        assert flagged.approved_fda

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            DrugEntry("x", "x", None, "none", "DB1", "rxnorm-map")


class TestLinkDrug:
    def test_local_and_map_path(self, resources):
        entry = link_drug("Aspirin Therapy", resources, NORMALIZATION)
        assert entry.cleaned_name == "aspirin"
        assert (entry.rxcui, entry.rxnorm_method) == ("1191", "local")
        assert (entry.drugbank_id, entry.drugbank_method) == ("DB00945", "rxnorm-map")
        assert entry.approved_fda and entry.approved_ema and entry.approved_pmda

    def test_brand_path_flags_via_drugbank_name(self, resources):
        entry = link_drug("Lucentis® Injection", resources, NORMALIZATION)
        assert entry.cleaned_name == "lucentis"
        assert (entry.rxcui, entry.rxnorm_method) == (None, "none")
        assert (entry.drugbank_id, entry.drugbank_method) == ("DB01270", "brand")
        # lucentis itself is in no agency list; the mapped name ranibizumab is
        assert entry.approved_fda and entry.approved_ema and entry.approved_pmda

    def test_compound_code_stays_unlinked(self, resources):
        entry = link_drug("HRS-5635 Injection", resources, NORMALIZATION)
        assert entry.cleaned_name == "hrs-5635"
        assert (entry.rxcui, entry.drugbank_id) == (None, None)
        assert (entry.rxnorm_method, entry.drugbank_method) == ("none", "none")
        assert not (entry.approved_fda or entry.approved_ema or entry.approved_pmda)

    def test_spelling_suggestion_path(self, resources):
        client = fake_rxnorm_client(suggestions={"asprin": ["aspirin"]})
        entry = link_drug("Asprin", resources, NORMALIZATION, remote_client=client)
        assert (entry.rxcui, entry.rxnorm_method) == ("1191", "spelling-suggestion")
        assert (entry.drugbank_id, entry.drugbank_method) == ("DB00945", "rxnorm-map")
