"""Whole CLI reports pinned byte for byte, human and JSON.

One small invocation per subcommand, plus ``solve`` on a graph that is
not admissible and ``reduce --check`` on a satisfiable formula.  Reports
too long to quote are pinned by their SHA-256.  Every run adds
``--deterministic`` so that ``wall_ms`` and ``time:`` read 0.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from sepcodes.cli import main

# (arguments, exit code, human report, --json report)
REPORTS = [
    ("solve --family path:4 --kind fd", 0, """\
source: family:path:4
kind: FD
size: 4
witness: 0 1 2 3
optimal: yes
nodes: 1
time: 0 ms
""", """\
{
  "budget": 10000000,
  "command": "solve --family path:4 --kind fd --deterministic --json",
  "deterministic": true,
  "format_version": "3",
  "graph": {
    "edges": 3,
    "source": "family:path:4",
    "vertices": 4
  },
  "results": [
    {
      "kind": "FD",
      "nodes": 1,
      "optimal": true,
      "size": 4,
      "wall_ms": 0,
      "witness": [
        0,
        1,
        2,
        3
      ]
    }
  ]
}
"""),
    ("solve --family cycle:3 --kind fd", 3, """\
source: family:cycle:3
kind: FD
not admissible: closed twins (0, 1)
""", """\
{
  "budget": 10000000,
  "command": "solve --family cycle:3 --kind fd --deterministic --json",
  "deterministic": true,
  "error": {
    "kind": "FD",
    "reason": "closed twins (0, 1)",
    "type": "not_admissible"
  },
  "format_version": "3",
  "graph": {
    "edges": 3,
    "source": "family:cycle:3",
    "vertices": 3
  }
}
"""),
    ("verify --family path:4 --kind fd --code 0 1 2", 0, """\
source: family:path:4
kind: FD
code: 0 1 2
verdict: reject
""", """\
{
  "command": "verify --family path:4 --kind fd --code 0 1 2 --deterministic --json",
  "deterministic": true,
  "format_version": "3",
  "graph": {
    "edges": 3,
    "source": "family:path:4",
    "vertices": 4
  },
  "results": [
    {
      "accepted": false,
      "code": [
        0,
        1,
        2
      ],
      "kind": "FD"
    }
  ]
}
"""),
    ("relations --family path:1", 0, """\
source: family:path:1
ID: 1
ITD: not admissible (isolated vertex 0)
LD: 1
LTD: not admissible (isolated vertex 0)
FD: 1
FTD: not admissible (isolated vertex 0)
OD: 1
OTD: not admissible (isolated vertex 0)
checks: 5/5 hold
  [ok] LD<=ID: 1 <= 1 [adjacent]
  [ok] OD<=FD: 1 <= 1 [adjacent]
  [ok] ID<=FD: 1 <= 1 [nonadjacent]
  [ok] LD<=OD: 1 <= 1 [nonadjacent]
  [ok] FD(G)=FTD(G-isolated)+1: 1 == 0+1
""", """\
{
  "budget": 10000000,
  "checks": [
    {
      "detail": "1 <= 1 [adjacent]",
      "holds": true,
      "name": "LD<=ID"
    },
    {
      "detail": "1 <= 1 [adjacent]",
      "holds": true,
      "name": "OD<=FD"
    },
    {
      "detail": "1 <= 1 [nonadjacent]",
      "holds": true,
      "name": "ID<=FD"
    },
    {
      "detail": "1 <= 1 [nonadjacent]",
      "holds": true,
      "name": "LD<=OD"
    },
    {
      "detail": "1 == 0+1",
      "holds": true,
      "name": "FD(G)=FTD(G-isolated)+1"
    }
  ],
  "command": "relations --family path:1 --deterministic --json",
  "deterministic": true,
  "format_version": "3",
  "graph": {
    "edges": 0,
    "source": "family:path:1",
    "vertices": 1
  },
  "results": [
    {
      "admissible": true,
      "kind": "ID",
      "nodes": 0,
      "optimal": true,
      "size": 1,
      "wall_ms": 0,
      "witness": [
        0
      ]
    },
    {
      "admissible": false,
      "kind": "ITD",
      "reason": "isolated vertex 0"
    },
    {
      "admissible": true,
      "kind": "LD",
      "nodes": 0,
      "optimal": true,
      "size": 1,
      "wall_ms": 0,
      "witness": [
        0
      ]
    },
    {
      "admissible": false,
      "kind": "LTD",
      "reason": "isolated vertex 0"
    },
    {
      "admissible": true,
      "kind": "FD",
      "nodes": 0,
      "optimal": true,
      "size": 1,
      "wall_ms": 0,
      "witness": [
        0
      ]
    },
    {
      "admissible": false,
      "kind": "FTD",
      "reason": "isolated vertex 0"
    },
    {
      "admissible": true,
      "kind": "OD",
      "nodes": 0,
      "optimal": true,
      "size": 1,
      "wall_ms": 0,
      "witness": [
        0
      ]
    },
    {
      "admissible": false,
      "kind": "OTD",
      "reason": "isolated vertex 0"
    }
  ],
  "violations": []
}
"""),
    ("reduce f.cnf -o out --check", 0, """\
source: file:f.cnf
formula: 1 variables, 1 clauses
gadget: 13 vertices, 18 edges
wrote: out.edges out.labels.json
satisfiable: yes
FTD number: 9 (target 9)
FD number: 8 (target 8)
  [ok] sat<=>FTD==7n+2m: sat=True, FTD=9, target=9
  [ok] sat<=>FD==7n+2m-1: sat=True, FD=8, target=8
  [ok] assignment-code-verifies-FTD: |code|=9
  [ok] assignment-code-verifies-FD: |code|=8
  [ok] code-decodes-to-satisfying-assignment: decoded=(True,)
""", """\
{
  "check": {
    "checks": [
      {
        "detail": "sat=True, FTD=9, target=9",
        "holds": true,
        "name": "sat<=>FTD==7n+2m"
      },
      {
        "detail": "sat=True, FD=8, target=8",
        "holds": true,
        "name": "sat<=>FD==7n+2m-1"
      },
      {
        "detail": "|code|=9",
        "holds": true,
        "name": "assignment-code-verifies-FTD"
      },
      {
        "detail": "|code|=8",
        "holds": true,
        "name": "assignment-code-verifies-FD"
      },
      {
        "detail": "decoded=(True,)",
        "holds": true,
        "name": "code-decodes-to-satisfying-assignment"
      }
    ],
    "fd": {
      "nodes": 0,
      "optimal": true,
      "size": 8
    },
    "ftd": {
      "nodes": 1,
      "optimal": true,
      "size": 9
    },
    "satisfiable": true
  },
  "cnf": {
    "clauses": 1,
    "source": "file:f.cnf",
    "variables": 1
  },
  "command": "reduce f.cnf --output out --check --deterministic --json",
  "deterministic": true,
  "format_version": "3",
  "gadget": {
    "edges": 18,
    "vertices": 13
  },
  "output": {
    "edges": "out.edges",
    "labels": "out.labels.json"
  }
}
"""),
    ("hypergraph --family path:3 --kind ld", 0, """\
source: family:path:3
kind: LD
hyperedges (6):
  0 1
  0 1 2
  0 1 2
  0 1 2
  0 2
  1 2
reduced hyperedges (3):
  0 1
  0 2
  1 2
""", """\
{
  "command": "hypergraph --family path:3 --kind ld --deterministic --json",
  "deterministic": true,
  "empty_hyperedge": false,
  "format_version": "3",
  "graph": {
    "edges": 2,
    "source": "family:path:3",
    "vertices": 3
  },
  "hypergraph": {
    "count": 6,
    "edges": [
      "0 1",
      "0 1 2",
      "0 1 2",
      "0 1 2",
      "0 2",
      "1 2"
    ]
  },
  "kind": "LD",
  "reduced": {
    "count": 3,
    "edges": [
      "0 1",
      "0 2",
      "1 2"
    ]
  }
}
"""),
    ("family path:4", 0, """\
spec: path:4
edge list:
  4 3
  0 1
  1 2
  2 3
known X-numbers:
  ID: -
  ITD: -
  LD: -
  LTD: -
  FD: 4
  FTD: 4
  OD: -
  OTD: 4
""", """\
{
  "command": "family path:4 --deterministic --json",
  "deterministic": true,
  "edge_list": [
    "4 3",
    "0 1",
    "1 2",
    "2 3"
  ],
  "format_version": "3",
  "graph": {
    "edges": 3,
    "vertices": 4
  },
  "known_numbers": {
    "FD": 4,
    "FTD": 4,
    "ID": null,
    "ITD": null,
    "LD": null,
    "LTD": null,
    "OD": null,
    "OTD": 4
  },
  "spec": "path:4"
}
"""),

]


# (arguments, exit code, SHA-256 of the human report, of the --json report)
DIGESTS = [
    # ids 0-10: a dump sorted as strings would put "6 10" before "6 7 8"
    ("hypergraph --family path:11 --kind od", 0,
     "ad684cba2689091701feeb862128e900d84206956e504a4c67208af219ba4131",
     "22b1b3f69d8c08e157dd6f6c5b476ea00064896737c664ecba5a65c70b953005"),
]


def run_report(argv, flags, tmp_path, monkeypatch):
    """Exit code and stdout of the CLI run on argv + flags, deterministic."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.cnf").write_text("p cnf 1 1\n1 0\n", encoding="utf-8")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([*argv.split(), *flags, "--deterministic"])
    return code, buf.getvalue()


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["human", "json"])
@pytest.mark.parametrize("argv, exit_code, human, as_json", REPORTS,
                         ids=[case[0].split()[0] for case in REPORTS])
def test_report_pinned(argv, exit_code, human, as_json, flags, tmp_path, monkeypatch):
    code, out = run_report(argv, flags, tmp_path, monkeypatch)
    assert code == exit_code
    assert out == (as_json if flags else human)


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["human", "json"])
@pytest.mark.parametrize("argv, exit_code, human, as_json", DIGESTS,
                         ids=[case[0].split()[0] for case in DIGESTS])
def test_report_digest_pinned(argv, exit_code, human, as_json, flags, tmp_path, monkeypatch):
    code, out = run_report(argv, flags, tmp_path, monkeypatch)
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (as_json if flags else human)
