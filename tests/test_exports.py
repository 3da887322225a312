"""The package's public names."""

import schottky_workbench


def test_every_exported_name_resolves():
    missing = [name for name in schottky_workbench.__all__
               if not hasattr(schottky_workbench, name)]
    assert missing == []
    assert len(set(schottky_workbench.__all__)) == \
        len(schottky_workbench.__all__)
    # lattices are resolved by id only, so every caller shares one store
    assert not {"build_lattice", "e8e8"} & set(dir(schottky_workbench))
