"""Every name a localp2 module exports in ``__all__`` exists, and the
package's records keep exactly their fields, read-only."""

import importlib
import pkgutil

import pytest

import localp2
from localp2 import cohomology as coh, mirror_geometry as geom
from localp2 import mirror_map as mm, picard_fuchs as pf, specfun as sf

# __main__ runs the command line when imported
_MODULES = ["localp2"] + [f"localp2.{m.name}" for m in pkgutil.iter_modules(localp2.__path__)
                          if m.name != "__main__"]
_EXPORTING = [name for name in _MODULES
              if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", _EXPORTING)
def test_all_entries_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, missing
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


# each record, the arguments of one valid instance, and its fields
_RECORDS = [
    (coh.KClass, (coh.Basis.BRANE, (0, 0, 1)), ("basis", "coords")),
    (sf.PrecisionConfig, ("double",), ("mode", "target_rel_err")),
    (geom.PeriodVector, (1.0, 2.0, 3.0, 1e3, (0.0, 0.0, 0.0)),
     ("i0", "i1", "i2", "y", "err")),
    (mm.TransferMatrix, (mm.TRANSFER_MATRIX, 0.0, 0.0),
     ("entries", "residual", "pre_round_dev")),
    (pf.SolutionTriple, (1.0, 2.0, 3.0, 0.01, 0.0),
     ("w0", "w1", "w2", "y", "err_estimate")),
]


@pytest.mark.parametrize("cls, args, fields", _RECORDS,
                         ids=[cls.__name__ for cls, _, _ in _RECORDS])
def test_record_fields_are_read_only(cls, args, fields):
    # the listed fields are all of them, so a record cannot gain one unnoticed
    assert cls._fields == fields
    record = cls(*args)
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value
    # nor does a record take a new attribute
    with pytest.raises(AttributeError):
        record.note = "x"
