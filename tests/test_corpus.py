import pytest

from qcorr.classify import ppt_label
from qcorr.corpus import LABELS, make_corpus
from qcorr.qstate import bell_phi_plus


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
def test_every_entry_has_the_requested_dims(dims):
    corpus = make_corpus(n_per_class=3, seed=5, d_a=dims[0], d_b=dims[1])
    assert [s.label for s in corpus] == [lab for lab in LABELS for _ in range(3)]
    for entry in corpus:
        assert entry.rho.dims == dims, entry.state_id
    for entry in corpus:
        if entry.label == "ent":
            assert ppt_label(entry.rho) == "npt", entry.state_id


def test_qubit_entangled_class_starts_with_bell_and_werner():
    ent = [s for s in make_corpus(n_per_class=4, seed=5) if s.label == "ent"]
    assert [s.state_id for s in ent] == ["ent_00", "ent_01", "ent_02", "ent_03"]
    assert (ent[0].rho.matrix == bell_phi_plus().matrix).all()
    assert all(s.rho.dims == (2, 2) and ppt_label(s.rho) == "npt" for s in ent)
