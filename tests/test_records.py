"""The library's record types: nine named tuples and two slotted classes,
each with its fields in order, refusing assignment and surviving a pickle
round trip."""

import pickle

import pytest

from oracles import from_jsonl, to_jsonl
from rvq.components import (RowReport, Table1Row, table1_rows, tau_sym,
                            verify_row)
from rvq.strata import CoverStratum, cover_stratum
from rvq.extensions import ExtensionWitness, SplitResult, split_singularity
from rvq.gp import (Decomposition, GeneralizedPermutation, find_reduction,
                    parse_gp)
from rvq.groups import ClosureResult, rauzy_veech_group_modp
from rvq.homology import QuotientData, quotient_data
from rvq.induction import RauzyClass, enumerate_class
from rvq.strata import StratumSignature, stratum_signature, turning_orbits

WITNESS = parse_gp("1 2 3 A A 4 / 4 3 B B 2 1")


def _split():
    return split_singularity(
        WITNESS, max(turning_orbits(WITNESS), key=len)[0], 3, 3)


# each type's fields in order, and one instance the library builds
RECORDS = {
    GeneralizedPermutation: (("top", "bottom"), lambda: WITNESS),
    RauzyClass: (("vertices", "table", "complete", "reduced_labels"),
                 lambda: enumerate_class(tau_sym(3))),
    Decomposition: (("i1", "i2", "i3", "i4"),
                    lambda: find_reduction(parse_gp("1 2 3 4 / 2 1 4 3"))),
    StratumSignature: (("orders", "genus"),
                       lambda: stratum_signature(WITNESS)),
    CoverStratum: (("orders", "genus"),
                   lambda: cover_stratum(stratum_signature(WITNESS))),
    ExtensionWitness: (("base", "extended", "letter"),
                       lambda: _split().witness),
    SplitResult: (("witness", "orders", "orbit_reps"), _split),
    Table1Row: (("number", "start", "end_orders", "flavour", "gp"),
                lambda: table1_rows()[0]),
    RowReport: (("row", "irreducible_ok", "convention_ok", "chain_ok",
                 "start_found", "stratum_found", "hyperelliptic"),
                lambda: verify_row(table1_rows()[0])),
    QuotientData: (("form", "unimodular", "inverse", "reduced_form"),
                   lambda: quotient_data(WITNESS)),
    ClosureResult: (("order", "index", "genus", "p", "generators_used",
                     "base_length", "exact"),
                    lambda: rauzy_veech_group_modp(
                        tau_sym(3), enumerate_class(tau_sym(3)), 2)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_keeps_its_fields_and_refuses_assignment(cls):
    fields, build = RECORDS[cls]
    record = build()
    assert type(record) is cls
    # named tuples list their fields; the two classes keep theirs in slots,
    # after which only private ones follow
    names = getattr(cls, "_fields", None) or tuple(
        name for name in cls.__slots__ if not name.startswith("_"))
    assert names == fields
    assert cls(*(getattr(record, name) for name in fields)) == record
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert pickle.loads(pickle.dumps(record)) == record


def test_closure_result_is_not_exact_by_default():
    assert ClosureResult._field_defaults == {"exact": False}
    assert ClosureResult(*range(6)).exact is False
    res = rauzy_veech_group_modp(tau_sym(3), enumerate_class(tau_sym(3)), 2)
    assert res.exact and res._replace(exact=False).exact is False


def test_permutation_is_equal_hashed_and_shown_by_its_rows_alone():
    text = "GeneralizedPermutation(top=('1', 'A', 'A', '2'), " \
           "bottom=('2', 'B', 'B', '1'))"
    built, bare = parse_gp("1 A A 2 / 2 B B 1"), parse_gp("1 A A 2 / 2 B B 1")
    assert built.pairs and built._pairs is not None and bare._pairs is None
    for gp in (built, bare):
        assert repr(gp) == text
        assert hash(gp) == hash((gp.top, gp.bottom))
    assert built == bare and not built != bare
    assert built != GeneralizedPermutation(built.bottom, built.top)
    assert built != (built.top, built.bottom)
    assert pickle.loads(pickle.dumps(built))._pairs is None


def test_rauzy_class_is_equal_by_its_fields_and_unhashable():
    rc = enumerate_class(tau_sym(4))
    # fill the memo, which equality does not read
    rc.step(0, "T")
    assert rc.index_of(rc.base) == 0
    read = from_jsonl(to_jsonl(rc))
    assert read == rc and not read != rc
    assert RauzyClass(rc.vertices, rc.table, complete=False) != rc
    assert RauzyClass(rc.vertices, rc.table, True, True) != rc
    with pytest.raises(TypeError):
        hash(rc)
