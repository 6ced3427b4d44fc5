def test_star_import_binds_every_public_name():
    # A name in simkbm.__all__ that the package does not bind raises AttributeError here.
    exec("from simkbm import *", {})
