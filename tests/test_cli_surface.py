"""Pins the command-line surface of ``repro``.

Walks the parser that ``repro.cli.main`` uses and compares, for the global
options and every subcommand, each option's strings, ``dest``, action,
default, choices, ``nargs``, type, metavar and required flag against the
table below.  A refactor of ``cli.py`` that changes what a user can type
(or what a command receives) fails here; a deliberate change to the
surface is a deliberate edit of this table.  Count options parse with
``positive_int`` (or ``non_negative_int``), which reject nonsense such as
``--k 0`` at parse time.
"""

import argparse

from repro.cli import _build_parser
from repro.rules.faults import ALL_FAULTS

FAULTS = "choices=" + ",".join(sorted(ALL_FAULTS))
FORMATS = "default='text' choices=text,json,markdown"

SURFACE = {
    None: {
        "--seed": "dest=seed action=store default=0 type=int",
        "--database": "dest=database action=store default='tpch' choices=tpch,star",
        "--workers": "dest=workers action=store default=1 type=int",
        "--no-cache": "dest=no_cache action=store_true default=False",
    },
    "ddl": {},
    "rules": {
        "--patterns": "dest=patterns action=store_true default=False",
    },
    "generate": {
        "--rule": "dest=rule action=store required",
        "--pair": "dest=pair action=store",
        "--method": "dest=method action=store default='pattern' choices=pattern,random",
        "--max-trials": "dest=max_trials action=store type=positive_int",
        "--extra-operators": "dest=extra_operators action=store default=0 type=non_negative_int",
    },
    "optimize": {
        "--sql": "dest=sql action=store required",
        "--disable": "dest=disable action=append default=[]",
        "--execute": "dest=execute action=store_true default=False",
    },
    "correctness": {
        "--rules": "dest=rules action=store default=8 type=positive_int",
        "--k": "dest=k action=store default=3 type=positive_int",
        "--method": "dest=method action=store default='topk' choices=baseline,smc,topk",
    },
    "diff": {
        "--backends": "dest=backends action=store default='engine,sqlite'",
        "--rules": "dest=rules action=store default=6 type=positive_int",
        "--rule-names": "dest=rule_names action=store nargs=+ metavar=RULE",
        "--k": "dest=k action=store default=2 type=positive_int",
        "--extra-operators": "dest=extra_operators action=store default=2 type=non_negative_int",
        "--fault": "dest=fault action=store " + FAULTS,
        "--format": "dest=format action=store " + FORMATS,
        "--output": "dest=output action=store",
        "--collect-out": "dest=collect_out action=store metavar=PATH",
    },
    "coverage": {
        "--rules": "dest=rules action=store default=10 type=positive_int",
        "--method": "dest=method action=store default='pattern' choices=pattern,random",
        "--pairs": "dest=pairs action=store_true default=False",
    },
    "interaction": {
        "--producer": "dest=producer action=store required",
        "--consumer": "dest=consumer action=store required",
    },
    "campaign": {
        "--rules": "dest=rules action=store default=10 type=positive_int",
        "--k": "dest=k action=store default=3 type=positive_int",
        "--output": "dest=output action=store",
        "--mutants": "dest=mutants action=store default=0 type=int metavar=N",
    },
    "mutate": {
        "--rules": "dest=rules action=store default=10 type=positive_int",
        "--rule-names": "dest=rule_names action=store nargs=+ metavar=RULE",
        "--operators": "dest=operators action=append metavar=NAME",
        "--list-operators": "dest=list_operators action=store_true default=False",
        "--pool": "dest=pool action=store default=8 type=positive_int",
        "--k": "dest=k action=store default=2 type=positive_int",
        "--sample": "dest=sample action=store type=positive_int metavar=N",
        "--extra-operators": "dest=extra_operators action=store default=4 type=non_negative_int",
        "--pool-seeds": "dest=pool_seeds action=store nargs=+ type=int metavar=SEED",
        "--format": "dest=format action=store " + FORMATS,
        "--output": "dest=output action=store",
        "--fail-under": "dest=fail_under action=store type=float metavar=FRACTION",
    },
    "compress": {
        "--matrix": "dest=matrix action=store metavar=PATH",
        "--objective": (
            "dest=objective action=store default='detection' "
            "choices=coverage,detection,pareto"
        ),
        "--base-k": "dest=base_k action=store default=2 type=int metavar=K",
        "--ks": "dest=ks action=store nargs=+ type=int metavar=K",
        "--no-adaptive": "dest=no_adaptive action=store_true default=False",
        "--max-k": "dest=max_k action=store type=int metavar=K",
        "--no-cross-validate": "dest=no_cross_validate action=store_true default=False",
        "--rules": "dest=rules action=store default=10 type=positive_int",
        "--pool": "dest=pool action=store default=8 type=positive_int",
        "--k": "dest=k action=store default=2 type=positive_int",
        "--sample": "dest=sample action=store type=positive_int metavar=N",
        "--extra-operators": "dest=extra_operators action=store default=4 type=non_negative_int",
        "--pool-seeds": "dest=pool_seeds action=store nargs=+ type=int metavar=SEED",
        "--differential": "dest=differential action=store metavar=BACKENDS",
        "--format": "dest=format action=store " + FORMATS,
        "--output": "dest=output action=store",
        "--pareto-out": "dest=pareto_out action=store metavar=PATH",
        "--matrix-out": "dest=matrix_out action=store metavar=PATH",
        "--fail-under": "dest=fail_under action=store type=float metavar=FRACTION",
    },
    "analyze": {
        "--json": "dest=json action=store_true default=False",
        "--seeds": "dest=seeds action=store default=6 type=int",
        "--skip-lint": "dest=skip_lint action=store_true default=False",
        "--skip-verify": "dest=skip_verify action=store_true default=False",
        "--skip-astlint": "dest=skip_astlint action=store_true default=False",
        "--interactions": "dest=interactions action=store_true default=False",
        "--interactions-dot": "dest=interactions_dot action=store metavar=PATH",
        "--gate": "dest=gate action=store metavar=RULE",
        "--gate-all": "dest=gate_all action=store_true default=False",
        "--gate-static-only": "dest=gate_static_only action=store_true default=False",
        "--plans": "dest=plans action=store default=0 type=int metavar=N",
        "--fault": "dest=fault action=store " + FAULTS,
        "--fail-on": "dest=fail_on action=store default='error' choices=error,warning",
    },
    "trace": {
        "--sql": "dest=sql action=store",
        "--rule": "dest=rule action=store",
        "--campaign": "dest=campaign action=store_true default=False",
        "--format": "dest=format action=store default='text' choices=text,json,chrome",
        "--top": "dest=top action=store default=10 type=positive_int metavar=N",
        "--rules": "dest=rules action=store default=6 type=positive_int",
        "--k": "dest=k action=store default=2 type=positive_int",
        "--disable": "dest=disable action=append default=[]",
        "--detail": "dest=detail action=store default='full' choices=full,summary",
        "--out": "dest=out action=store",
        "--executor": "dest=executor action=store choices=columnar,iterator",
    },
    "cache": {
        "--stats": "dest=stats action=store_true default=False",
        "--clear": "dest=clear action=store_true default=False",
    },
}

#: required mutually exclusive groups, per subcommand
EXCLUSIVE = {
    "trace": [("--sql", "--rule", "--campaign")],
    "cache": [("--stats", "--clear")],
}

ACTIONS = {
    argparse._StoreAction: "store",
    argparse._StoreTrueAction: "store_true",
    argparse._AppendAction: "append",
}


def _describe(action) -> str:
    parts = [f"dest={action.dest}", f"action={ACTIONS[type(action)]}"]
    if action.default is not None:
        parts.append(f"default={action.default!r}")
    if action.choices is not None:
        parts.append("choices=" + ",".join(action.choices))
    if action.nargs not in (None, 0):
        parts.append(f"nargs={action.nargs}")
    if action.type is not None:
        parts.append(f"type={action.type.__name__}")
    if action.metavar is not None:
        parts.append(f"metavar={action.metavar}")
    if action.required:
        parts.append("required")
    return " ".join(parts)


def _options(parser):
    return [
        action for action in parser._actions
        if not isinstance(
            action, (argparse._HelpAction, argparse._SubParsersAction)
        )
    ]


def _subcommands(parser):
    (commands,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices


def _surface(parser):
    described = {None: parser}
    described.update(_subcommands(parser))
    return {
        name: {
            # every option has exactly one spelling; pin it
            "|".join(action.option_strings): _describe(action)
            for action in _options(sub)
        }
        for name, sub in described.items()
    }


def test_every_option_of_every_subcommand_is_pinned():
    surface = _surface(_build_parser())
    assert list(surface) == list(SURFACE)
    for name, expected in SURFACE.items():
        # compared as item lists: --help shows options in this order
        assert list(surface[name].items()) == list(expected.items()), name


def test_required_exclusive_groups_are_pinned():
    for name, sub in _subcommands(_build_parser()).items():
        groups = [
            (
                tuple(a.option_strings[0] for a in group._group_actions),
                group.required,
            )
            for group in sub._mutually_exclusive_groups
        ]
        expected = [(options, True) for options in EXCLUSIVE.get(name, [])]
        assert groups == expected, name
