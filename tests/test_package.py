import plotting_solver


def test_every_exported_name_resolves():
    for name in plotting_solver.__all__:
        assert getattr(plotting_solver, name) is not None, name
