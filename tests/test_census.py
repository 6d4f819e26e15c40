"""The optional parameters of the package's public names and the CLI's
config parameters.

Every option doubles the configurations that tests and benchmarks must
cover, so the counts are pinned: a change that adds one updates it here
and names the caller outside the tests that needs a value other than the
default, or, for a CLI parameter, the config that needs it.
"""

import inspect

import holderlab
from holderlab import cli


def optional_parameters(kind):
    """{name: its optional parameters} over the exported functions, or over
    the exported classes' constructors; exceptions take any arguments."""
    found = {}
    for name in dir(holderlab):
        obj = getattr(holderlab, name)
        if name.startswith("_") or not kind(obj) or (
                inspect.isclass(obj) and issubclass(obj, BaseException)):
            continue
        found[name] = [par.name for par in
                       inspect.signature(obj).parameters.values()
                       if par.default is not par.empty]
    return found


def test_option_census():
    functions = optional_parameters(inspect.isfunction)
    classes = optional_parameters(inspect.isclass)
    assert sum(map(len, functions.values())) == 36, functions
    assert sum(map(len, classes.values())) == 11, classes


def test_cli_parameter_census():
    assert sum(map(len, cli.PARAMS.values())) == 29, cli.PARAMS
