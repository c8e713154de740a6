"""The example spaces of `fixtures/*.json`, read as the `pretopo` verbs
read them: a union-closed family is taken as given, and a generating
family such as `alg5.json` is closed. `fixtures/README.md` says what each
example shows."""

from pathlib import Path

from pretopo import cli

DIR = Path(__file__).resolve().parent.parent / "fixtures"
NAMES = tuple(sorted(p.stem for p in DIR.glob("*.json") if p.stem != "notcover"))


def family(name):
    """The family in `fixtures/<name>.json`, as written."""
    return cli._family(str(DIR / f"{name}.json"))


def space(name):
    """The space of `fixtures/<name>.json`, closed if the file generates it."""
    return cli._space(str(DIR / f"{name}.json"))
