"""Byte-for-byte CLI outputs and element renderings.

Each case runs one command in process and compares stdout with the exact
text recorded here, so any change in a rendering, in term order or in the
arithmetic behind it fails.  The inputs carry ``h``- and unit-bearing
coefficients, fractional weights and formal characters.  Update an expected
text only for an intended change of output.

A second check renders seeded elements of every sparse class and of the two
wrappers through ``str``, ``repr``, JSON and the ``terms``/``atoms``/``items``
views, and compares the count and the SHA-256 of the joined text with
recorded values, so a change in how keys are stored is checked for the same
bytes at every edge.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from hypermoyal import (
    Binarion,
    CharSum,
    ExpPoly,
    GrassmannElement,
    HPoly,
    Operator,
    PolySymbol,
    Sigma,
    Ultradistribution,
    WaveFunction,
)
from hypermoyal.cli import main

FOURIER_JSON = {
    "dim": 2,
    "sigma": 1,
    "atoms": [
        {"loc": ["1/2", "0"], "order": [2, 1],
         "weight": {"chars": [{"exp": "1/3", "re": "2", "im": "-1"},
                              {"exp": "0", "re": "1/2", "im": "0"}]}},
        {"loc": ["0", "-1"], "order": [0, 3], "weight": {"re": "3/4", "im": "5"}},
        {"loc": ["0", "0"], "order": [1, 0], "weight": {"re": "-2", "im": "0"}},
    ],
}
OPERATOR_JSON = {
    "h": "1/3",
    "sigma": -1,
    "kind": "poly",
    "symbol": {
        "dof": 2,
        "sigma": -1,
        "terms": [
            {"q": [1, 0], "p": [0, 2], "coeff": [{"h": 0, "re": "2", "im": "1/2"},
                                                 {"h": 1, "re": "0", "im": "-1"}]},
            {"q": [0, 1], "p": [1, 0], "coeff": [{"h": 0, "re": "-3/5", "im": "0"}]},
            {"q": [0, 0], "p": [0, 0], "coeff": [{"h": 2, "re": "1", "im": "1"}]},
        ],
    },
}
WAVE_JSON = {
    "h": "1/3",
    "func": {
        "dim": 2,
        "sigma": -1,
        "terms": [
            {"freq": ["3", "0"], "exp": [1, 0], "coeff": {"re": "1", "im": "2"}},
            {"freq": ["0", "-3/2"], "exp": [0, 2], "coeff": {"re": "-1/2", "im": "0"}},
            {"freq": ["0", "0"], "exp": [1, 1], "coeff": {"re": "0", "im": "1"}},
        ],
    },
}
# a lambda = 0 row, an exact trigonometric row, an exact hyperbolic row, a
# degenerate row (D = 0) and a row whose D is irrational
INTERFERENCE_CSV = """P(a1),P(b1|a1),P(b1|a2),P(b1)
0.5,0.5,0.5,0.5
0.5,0.5,0.5,0.9
0.5,0.9,0.1,0.95
1,0.4,0.7,0.4
0.3,0.2,0.7,0.61
"""

A = "(1+2j)*q1*p2 + h*p1^2 - 3/2*q2"
B = "q1^2*p1 - 1/2*q2*p2 + 2j*h*q1"
AI = "(1+2i)*q1*p2 + h*p1^2 - 3/2*q2"
BI = "q1^2*p1 - 1/2*q2*p2 + 2i*h*q1"
E = "p1^2*q2 + h*q1*p2 - 3/2"
F = "q1^3*p1 + 1/2*q2^2*p2"
C = "p1*q2 + h*q1 - 3/2"
D = "q1^2*p1 + 1/2*p2"
L1 = "q1^2*p2 + 2*p1^3"
L2 = "q2*p1^2 + 1/2*q1^3"
G1 = "t1 + 2*t2*t3 + 5"
G2 = "t2 - 3*t1*t3 + 1/2*t1*t2*t3"
G3 = "(1+i)*t2 - 3*t1*t3 + 1/2*t1*t2*t3"

CASES = {
    "star_text": (
        ["star", A, B, "--sigma", "+1"],
        '''sigma=+1: (1 + 2j)*q1^3*p1*p2 + h*q1^2*p1^3 - 3/2*q1^2*q2*p1 + (-1/2 - 1j)*q1*q2*p2^2 - 1/2*h*q2*p1^2*p2 + (4 + 2j)*h*q1^2*p2 + 6j*h^2*q1*p1^2 + 3/4*q2^2*p2 - 3j*h*q1*q2 + (-1 - 1/2j)*h*q1*p2 + 6*h^3*p1
''',
    ),
    "star_json": (
        ["star", AI, BI, "--sigma", "-1", "--format", "json"],
        '''{
  "result": "(1 + 2i)*q1^3*p1*p2 + h*q1^2*p1^3 - 3/2*q1^2*q2*p1 + (-1/2 - 1i)*q1*q2*p2^2 - 1/2*h*q2*p1^2*p2 + (-4 + 2i)*h*q1^2*p2 - 2i*h^2*q1*p1^2 + 3/4*q2^2*p2 - 3i*h*q1*q2 + (-1 + 1/2i)*h*q1*p2 + 2*h^3*p1",
  "sigma": -1,
  "terms": [
    {
      "coeff": [
        {
          "h": 0,
          "im": "2",
          "re": "1"
        }
      ],
      "p": [
        1,
        1
      ],
      "q": [
        3,
        0
      ]
    },
    {
      "coeff": [
        {
          "h": 1,
          "im": "0",
          "re": "1"
        }
      ],
      "p": [
        3,
        0
      ],
      "q": [
        2,
        0
      ]
    },
    {
      "coeff": [
        {
          "h": 0,
          "im": "0",
          "re": "-3/2"
        }
      ],
      "p": [
        1,
        0
      ],
      "q": [
        2,
        1
      ]
    },
    {
      "coeff": [
        {
          "h": 0,
          "im": "-1",
          "re": "-1/2"
        }
      ],
      "p": [
        0,
        2
      ],
      "q": [
        1,
        1
      ]
    },
    {
      "coeff": [
        {
          "h": 1,
          "im": "0",
          "re": "-1/2"
        }
      ],
      "p": [
        2,
        1
      ],
      "q": [
        0,
        1
      ]
    },
    {
      "coeff": [
        {
          "h": 1,
          "im": "2",
          "re": "-4"
        }
      ],
      "p": [
        0,
        1
      ],
      "q": [
        2,
        0
      ]
    },
    {
      "coeff": [
        {
          "h": 2,
          "im": "-2",
          "re": "0"
        }
      ],
      "p": [
        2,
        0
      ],
      "q": [
        1,
        0
      ]
    },
    {
      "coeff": [
        {
          "h": 0,
          "im": "0",
          "re": "3/4"
        }
      ],
      "p": [
        0,
        1
      ],
      "q": [
        0,
        2
      ]
    },
    {
      "coeff": [
        {
          "h": 1,
          "im": "-3",
          "re": "0"
        }
      ],
      "p": [
        0,
        0
      ],
      "q": [
        1,
        1
      ]
    },
    {
      "coeff": [
        {
          "h": 1,
          "im": "1/2",
          "re": "-1"
        }
      ],
      "p": [
        0,
        1
      ],
      "q": [
        1,
        0
      ]
    },
    {
      "coeff": [
        {
          "h": 3,
          "im": "0",
          "re": "2"
        }
      ],
      "p": [
        1,
        0
      ],
      "q": [
        0,
        0
      ]
    }
  ]
}
''',
    ),
    "star_both_text": (
        ["star", E, F, "--sigma", "both"],
        '''sigma=+1: q1^3*q2*p1^3 + h*q1^4*p1*p2 + 1/2*q2^3*p1^2*p2 + 6j*h*q1^2*q2*p1^2 + 1/2*h*q1*q2^2*p2^2 - 3/2*q1^3*p1 + 6*h^2*q1*q2*p1 + 1j*h^2*q1*q2*p2 - 3/4*q2^2*p2
sigma=-1: q1^3*q2*p1^3 + h*q1^4*p1*p2 + 1/2*q2^3*p1^2*p2 - 6i*h*q1^2*q2*p1^2 + 1/2*h*q1*q2^2*p2^2 - 3/2*q1^3*p1 - 6*h^2*q1*q2*p1 - 1i*h^2*q1*q2*p2 - 3/4*q2^2*p2
''',
    ),
    "star_h_text": (
        ["star", E, F, "--sigma", "both", "--h", "1/2"],
        '''sigma=+1: q1^3*q2*p1^3 + 1/2*q1^4*p1*p2 + 1/2*q2^3*p1^2*p2 + 3j*q1^2*q2*p1^2 + 1/4*q1*q2^2*p2^2 - 3/2*q1^3*p1 + 3/2*q1*q2*p1 + 1/4j*q1*q2*p2 - 3/4*q2^2*p2
sigma=-1: q1^3*q2*p1^3 + 1/2*q1^4*p1*p2 + 1/2*q2^3*p1^2*p2 - 3i*q1^2*q2*p1^2 + 1/4*q1*q2^2*p2^2 - 3/2*q1^3*p1 - 3/2*q1*q2*p1 - 1/4i*q1*q2*p2 - 3/4*q2^2*p2
''',
    ),
    "star_h_json": (
        ["star", C, D, "--sigma", "both", "--h", "1/2", "--format", "json"],
        '''[
  {
    "result": "q1^2*q2*p1^2 + 1/2*q1^3*p1 - 3/2*q1^2*p1 + 1j*q1*q2*p1 + 1/2*q2*p1*p2 + 1/4*q1*p2 - 3/4*p2",
    "sigma": 1,
    "terms": [
      {
        "coeff": [
          {
            "h": 0,
            "im": "0",
            "re": "1"
          }
        ],
        "p": [
          2,
          0
        ],
        "q": [
          2,
          1
        ]
      },
      {
        "coeff": [
          {
            "h": 0,
            "im": "0",
            "re": "1/2"
          }
        ],
        "p": [
          1,
          0
        ],
        "q": [
          3,
          0
        ]
      },
      {
        "coeff": [
          {
            "h": 0,
            "im": "0",
            "re": "-3/2"
          }
        ],
        "p": [
          1,
          0
        ],
        "q": [
          2,
          0
        ]
      },
      {
        "coeff": [
          {
            "h": 0,
            "im": "1",
            "re": "0"
          }
        ],
        "p": [
          1,
          0
        ],
        "q": [
          1,
          1
        ]
      },
      {
        "coeff": [
          {
            "h": 0,
            "im": "0",
            "re": "1/2"
          }
        ],
        "p": [
          1,
          1
        ],
        "q": [
          0,
          1
        ]
      },
      {
        "coeff": [
          {
            "h": 0,
            "im": "0",
            "re": "1/4"
          }
        ],
        "p": [
          0,
          1
        ],
        "q": [
          1,
          0
        ]
      },
      {
        "coeff": [
          {
            "h": 0,
            "im": "0",
            "re": "-3/4"
          }
        ],
        "p": [
          0,
          1
        ],
        "q": [
          0,
          0
        ]
      }
    ]
  },
  {
    "result": "q1^2*q2*p1^2 + 1/2*q1^3*p1 - 3/2*q1^2*p1 - 1i*q1*q2*p1 + 1/2*q2*p1*p2 + 1/4*q1*p2 - 3/4*p2",
    "sigma": -1,
    "terms": [
      {
        "coeff": [
          {
            "h": 0,
            "im": "0",
            "re": "1"
          }
        ],
        "p": [
          2,
          0
        ],
        "q": [
          2,
          1
        ]
      },
      {
        "coeff": [
          {
            "h": 0,
            "im": "0",
            "re": "1/2"
          }
        ],
        "p": [
          1,
          0
        ],
        "q": [
          3,
          0
        ]
      },
      {
        "coeff": [
          {
            "h": 0,
            "im": "0",
            "re": "-3/2"
          }
        ],
        "p": [
          1,
          0
        ],
        "q": [
          2,
          0
        ]
      },
      {
        "coeff": [
          {
            "h": 0,
            "im": "-1",
            "re": "0"
          }
        ],
        "p": [
          1,
          0
        ],
        "q": [
          1,
          1
        ]
      },
      {
        "coeff": [
          {
            "h": 0,
            "im": "0",
            "re": "1/2"
          }
        ],
        "p": [
          1,
          1
        ],
        "q": [
          0,
          1
        ]
      },
      {
        "coeff": [
          {
            "h": 0,
            "im": "0",
            "re": "1/4"
          }
        ],
        "p": [
          0,
          1
        ],
        "q": [
          1,
          0
        ]
      },
      {
        "coeff": [
          {
            "h": 0,
            "im": "0",
            "re": "-3/4"
          }
        ],
        "p": [
          0,
          1
        ],
        "q": [
          0,
          0
        ]
      }
    ]
  }
]
''',
    ),
    "limit_text": (
        ["limit", L1, L2, "--sigma", "both", "--steps", "3"],
        '''sigma=+1: residual = 18j*h*q1*p1 - 2j*h*q2*p2 + 6*h^2
  constant term zero: yes
  h=       1  residual(1,..,1) = 6 + 16u
  h=     1/2  residual(1,..,1) = 1.5 + 8u
  h=     1/4  residual(1,..,1) = 0.375 + 4u
sigma=-1: residual = -18i*h*q1*p1 + 2i*h*q2*p2 - 6*h^2
  constant term zero: yes
  h=       1  residual(1,..,1) = -6 + -16u
  h=     1/2  residual(1,..,1) = -1.5 + -8u
  h=     1/4  residual(1,..,1) = -0.375 + -4u
''',
    ),
    "limit_json": (
        ["limit", L1, L2, "--sigma", "-1", "--steps", "3", "--format", "json"],
        '''{
  "constant_term_zero": true,
  "residual": "-18i*h*q1*p1 + 2i*h*q2*p2 - 6*h^2",
  "sigma": -1,
  "values_at_ones": [
    {
      "h": "1",
      "im": "-16",
      "re": "-6"
    },
    {
      "h": "1/2",
      "im": "-8",
      "re": "-1.5"
    },
    {
      "h": "1/4",
      "im": "-4",
      "re": "-0.375"
    }
  ]
}
''',
    ),
    "fourier_text": (
        ["fourier", "{fourier}"],
        '''(-5 - 3/4j)*x2^3*exp(j*(-1*x2)) + (2j)*x1 + (-1/2j + (1 - 2j)*e^(1/3j))*x1^2*x2*exp(j*(1/2*x1))
''',
    ),
    "fourier_json": (
        ["fourier", "{fourier}", "--format", "json"],
        '''{
  "dim": 2,
  "sigma": 1,
  "terms": [
    {
      "coeff": {
        "im": "-3/4",
        "re": "-5"
      },
      "exp": [
        0,
        3
      ],
      "freq": [
        "0",
        "-1"
      ]
    },
    {
      "coeff": {
        "im": "2",
        "re": "0"
      },
      "exp": [
        1,
        0
      ],
      "freq": [
        "0",
        "0"
      ]
    },
    {
      "coeff": {
        "chars": [
          {
            "exp": "0",
            "im": "-1/2",
            "re": "0"
          },
          {
            "exp": "1/3",
            "im": "-2",
            "re": "1"
          }
        ]
      },
      "exp": [
        2,
        1
      ],
      "freq": [
        "1/2",
        "0"
      ]
    }
  ]
}
''',
    ),
    "apply_text": (
        ["apply", "{operator}", "{wave}"],
        '''(-1/18 - 1/18i)*q2^2*exp(i*(-3/2*q2)) + (2/9 + 1/54i)*q1*exp(i*(-3/2*q2)) + (1/18 - 2/3i)*q1*q2*exp(i*(-3/2*q2)) + (-1/4 - 1/48i)*q1*q2^2*exp(i*(-3/2*q2)) + -1/5*q2^2 + (-1/9 + 1/9i)*q1*q2 + (-2/5 + 1/5i)*q2*exp(i*(3*q1)) + (-1/9 + 1/3i)*q1*exp(i*(3*q1)) + (-3/5 - 6/5i)*q1*q2*exp(i*(3*q1))
''',
    ),
    "apply_json": (
        ["apply", "{operator}", "{wave}", "--format", "json"],
        '''{
  "func": {
    "dim": 2,
    "sigma": -1,
    "terms": [
      {
        "coeff": {
          "im": "-1/18",
          "re": "-1/18"
        },
        "exp": [
          0,
          2
        ],
        "freq": [
          "0",
          "-3/2"
        ]
      },
      {
        "coeff": {
          "im": "1/54",
          "re": "2/9"
        },
        "exp": [
          1,
          0
        ],
        "freq": [
          "0",
          "-3/2"
        ]
      },
      {
        "coeff": {
          "im": "-2/3",
          "re": "1/18"
        },
        "exp": [
          1,
          1
        ],
        "freq": [
          "0",
          "-3/2"
        ]
      },
      {
        "coeff": {
          "im": "-1/48",
          "re": "-1/4"
        },
        "exp": [
          1,
          2
        ],
        "freq": [
          "0",
          "-3/2"
        ]
      },
      {
        "coeff": {
          "im": "0",
          "re": "-1/5"
        },
        "exp": [
          0,
          2
        ],
        "freq": [
          "0",
          "0"
        ]
      },
      {
        "coeff": {
          "im": "1/9",
          "re": "-1/9"
        },
        "exp": [
          1,
          1
        ],
        "freq": [
          "0",
          "0"
        ]
      },
      {
        "coeff": {
          "im": "1/5",
          "re": "-2/5"
        },
        "exp": [
          0,
          1
        ],
        "freq": [
          "3",
          "0"
        ]
      },
      {
        "coeff": {
          "im": "1/3",
          "re": "-1/9"
        },
        "exp": [
          1,
          0
        ],
        "freq": [
          "3",
          "0"
        ]
      },
      {
        "coeff": {
          "im": "-6/5",
          "re": "-3/5"
        },
        "exp": [
          1,
          1
        ],
        "freq": [
          "3",
          "0"
        ]
      }
    ]
  },
  "h": "1/3"
}
''',
    ),
    "super_text": (
        ["super", G1, G2, "--gens", "3"],
        '''a = 5 + θ1 + (2)·θ2θ3  (parity mixed)
b = θ2 + (-3)·θ1θ3 + (1/2)·θ1θ2θ3  (parity mixed)
a*b = (5)·θ2 + θ1θ2 + (-15)·θ1θ3 + (5/2)·θ1θ2θ3
supercommutator = 0
''',
    ),
    "super_json": (
        ["super", G1, G3, "--gens", "3", "--sigma", "-1", "--format", "json"],
        r'''{
  "a": "5 + \u03b81 + (2)\u00b7\u03b82\u03b83",
  "b": "(1 + 1i)\u00b7\u03b82 + (-3)\u00b7\u03b81\u03b83 + (1/2)\u00b7\u03b81\u03b82\u03b83",
  "parity_a": "mixed",
  "parity_b": "mixed",
  "product": "(5 + 5i)\u00b7\u03b82 + (1 + 1i)\u00b7\u03b81\u03b82 + (-15)\u00b7\u03b81\u03b83 + (5/2)\u00b7\u03b81\u03b82\u03b83",
  "supercommutator": "0"
}
''',
    ),
    "witness_text": (
        ["super", "--witness", "5"],
        '''witness = θ1θ2θ3θ4θ5 annihilates all 16 odd basis monomials and is nonzero
''',
    ),
    "selftest_text": (
        ["selftest", "--fast", "--seed", "3", "--format", "text"],
        '''[PASS]  1. canonical commutation relation (2 cases, 0 failures)
[PASS]  2. classical limit is the Poisson bracket (40 cases, 0 failures)
[PASS]  3. star product associativity (40 cases, 0 failures)
[PASS]  4. operator-symbol composition homomorphism (40 cases, 0 failures)
[PASS]  5. two independent star-product routes agree (20 cases, 0 failures)
[PASS]  6. Fourier transform identities on point atoms (34 cases, 0 failures)
[PASS]  7. plane-wave eigenrelation (20 cases, 0 failures)
[PASS]  8. interference round trips and worked tables (103 cases, 0 failures)
[PASS]  9. Grassmann supercommutativity and annihilator witness (36 cases, 0 failures)
[PASS] 10. seeded reports are byte-identical (1 cases, 0 failures)
all passed
''',
    ),
    "selftest_json": (
        ["selftest", "--fast", "--seed", "3", "--format", "json"],
        '''{
  "all_passed": true,
  "criteria": [
    {
      "cases": 2,
      "detail": {
        "sigma=+1": "-1j*h",
        "sigma=-1": "1i*h"
      },
      "failures": 0,
      "id": 1,
      "name": "canonical commutation relation",
      "passed": true
    },
    {
      "cases": 40,
      "failures": 0,
      "id": 2,
      "name": "classical limit is the Poisson bracket",
      "passed": true
    },
    {
      "cases": 40,
      "failures": 0,
      "id": 3,
      "name": "star product associativity",
      "passed": true
    },
    {
      "cases": 40,
      "failures": 0,
      "id": 4,
      "name": "operator-symbol composition homomorphism",
      "passed": true
    },
    {
      "cases": 20,
      "failures": 0,
      "id": 5,
      "name": "two independent star-product routes agree",
      "passed": true
    },
    {
      "cases": 34,
      "failures": 0,
      "id": 6,
      "name": "Fourier transform identities on point atoms",
      "passed": true
    },
    {
      "cases": 20,
      "failures": 0,
      "id": 7,
      "name": "plane-wave eigenrelation",
      "passed": true
    },
    {
      "cases": 103,
      "failures": 0,
      "id": 8,
      "name": "interference round trips and worked tables",
      "passed": true
    },
    {
      "cases": 36,
      "failures": 0,
      "id": 9,
      "name": "Grassmann supercommutativity and annihilator witness",
      "passed": true
    },
    {
      "cases": 1,
      "failures": 0,
      "id": 10,
      "name": "seeded reports are byte-identical",
      "passed": true
    }
  ],
  "fast": true,
  "seed": 3
}
''',
    ),
    "interfere_json": (
        ["interfere", "{interference}", "--format", "json"],
        '''[
  {
    "report": {
      "normalization_residual": "0",
      "outcomes": [
        {
          "classical": "1/2",
          "d": "1/4",
          "interference": "0",
          "lambda": "0",
          "observed": "1/2",
          "regime": "trigonometric",
          "sign": null,
          "theta": "1.57079632679"
        },
        {
          "classical": "1/2",
          "d": "1/4",
          "interference": "0",
          "lambda": "0",
          "observed": "1/2",
          "regime": "trigonometric",
          "sign": null,
          "theta": "1.57079632679"
        }
      ]
    },
    "row": 2,
    "theta_range": [
      {
        "admissible": true,
        "cosh_max": "1",
        "degenerate": false,
        "theta_max": "0"
      },
      {
        "admissible": true,
        "cosh_max": "1",
        "degenerate": false,
        "theta_max": "0"
      }
    ]
  },
  {
    "report": {
      "normalization_residual": "0",
      "outcomes": [
        {
          "classical": "1/2",
          "d": "1/4",
          "interference": "1/5",
          "lambda": "4/5",
          "observed": "9/10",
          "regime": "trigonometric",
          "sign": null,
          "theta": "0.643501108793"
        },
        {
          "classical": "1/2",
          "d": "1/4",
          "interference": "-1/5",
          "lambda": "-4/5",
          "observed": "1/10",
          "regime": "trigonometric",
          "sign": null,
          "theta": "2.4980915448"
        }
      ]
    },
    "row": 3,
    "theta_range": [
      {
        "admissible": true,
        "cosh_max": "1",
        "degenerate": false,
        "theta_max": "0"
      },
      {
        "admissible": true,
        "cosh_max": "1",
        "degenerate": false,
        "theta_max": "0"
      }
    ]
  },
  {
    "report": {
      "normalization_residual": "0",
      "outcomes": [
        {
          "classical": "1/2",
          "d": "3/20",
          "interference": "9/40",
          "lambda": "3/2",
          "observed": "19/20",
          "regime": "hyperbolic",
          "sign": 1,
          "theta": "0.962423650119"
        },
        {
          "classical": "1/2",
          "d": "3/20",
          "interference": "-9/40",
          "lambda": "-3/2",
          "observed": "1/20",
          "regime": "hyperbolic",
          "sign": -1,
          "theta": "0.962423650119"
        }
      ]
    },
    "row": 4,
    "theta_range": [
      {
        "admissible": true,
        "cosh_max": "5/3",
        "degenerate": false,
        "theta_max": "1.09861228867"
      },
      {
        "admissible": true,
        "cosh_max": "5/3",
        "degenerate": false,
        "theta_max": "1.09861228867"
      }
    ]
  },
  {
    "report": {
      "normalization_residual": "0",
      "outcomes": [
        {
          "classical": "2/5",
          "d": "0",
          "interference": "0",
          "lambda": null,
          "observed": "2/5",
          "regime": "degenerate",
          "sign": null,
          "theta": null
        },
        {
          "classical": "3/5",
          "d": "0",
          "interference": "0",
          "lambda": null,
          "observed": "3/5",
          "regime": "degenerate",
          "sign": null,
          "theta": null
        }
      ]
    },
    "row": 5,
    "theta_range": [
      {
        "admissible": false,
        "cosh_max": null,
        "degenerate": true,
        "theta_max": null
      },
      {
        "admissible": false,
        "cosh_max": null,
        "degenerate": true,
        "theta_max": null
      }
    ]
  },
  {
    "report": {
      "normalization_residual": "0",
      "outcomes": [
        {
          "classical": "11/20",
          "d": "0.171464281995",
          "interference": "3/100",
          "lambda": "0.174963553056",
          "observed": "61/100",
          "regime": "trigonometric",
          "sign": null,
          "theta": "1.3949275767"
        },
        {
          "classical": "9/20",
          "d": "0.224499443206",
          "interference": "-3/100",
          "lambda": "-0.133630620956",
          "observed": "39/100",
          "regime": "trigonometric",
          "sign": null,
          "theta": "1.70482788821"
        }
      ]
    },
    "row": 6,
    "theta_range": [
      {
        "admissible": true,
        "cosh_max": "1.31222664792",
        "degenerate": false,
        "theta_max": "0.770985823404"
      },
      {
        "admissible": true,
        "cosh_max": "1.00222965717",
        "degenerate": false,
        "theta_max": "0.0667656963123"
      }
    ]
  }
]
''',
    ),
    "interfere_csv": (
        ["interfere", "{interference}", "--format", "csv"],
        '''row,outcome,observed,classical,d,lambda,regime,theta,cosh_max,residual
2,1,1/2,1/2,1/4,0,trigonometric,1.57079632679,1,0
2,2,1/2,1/2,1/4,0,trigonometric,1.57079632679,1,0
3,1,9/10,1/2,1/4,4/5,trigonometric,0.643501108793,1,0
3,2,1/10,1/2,1/4,-4/5,trigonometric,2.4980915448,1,0
4,1,19/20,1/2,3/20,3/2,hyperbolic,0.962423650119,5/3,0
4,2,1/20,1/2,3/20,-3/2,hyperbolic,0.962423650119,5/3,0
5,1,2/5,2/5,0,,degenerate,,,0
5,2,3/5,3/5,0,,degenerate,,,0
6,1,61/100,11/20,0.171464281995,0.174963553056,trigonometric,1.3949275767,1.31222664792,0
6,2,39/100,9/20,0.224499443206,-0.133630620956,trigonometric,1.70482788821,1.00222965717,0
''',
    ),
}


@pytest.fixture
def input_files(tmp_path):
    paths = {}
    for name, data in (
        ("fourier", FOURIER_JSON),
        ("operator", OPERATOR_JSON),
        ("wave", WAVE_JSON),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = str(path)
    path = tmp_path / "interference.csv"
    path.write_text(INTERFERENCE_CSV, encoding="utf-8")
    paths["interference"] = str(path)
    return paths


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_is_byte_identical(name, input_files, capsys):
    argv, expected = CASES[name]
    argv = [arg.format(**input_files) if arg.startswith("{") else arg for arg in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == expected


def _coeff(rng, sigma):
    re = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
    im = rng.choice([0, 0, re, -re, Fraction(rng.randint(-3, 3), 2)])
    return Binarion(re, im, sigma)


def _exps(rng, k):
    return tuple(rng.choice([0, 0, 1, 2]) for _ in range(k))


def _rational(rng):
    return rng.choice([0, 0, 1, Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))])


def _elements(rng, sigma):
    """One seeded element of each sparse class and of each wrapper."""
    def terms(make):
        return [make() for _ in range(rng.randint(0, 4))]

    hpoly = HPoly(dict(terms(lambda: (rng.randint(0, 3), _coeff(rng, sigma)))), sigma)
    charsum = CharSum(dict(terms(
        lambda: (Fraction(rng.randint(-3, 3), rng.choice([1, 2])), _coeff(rng, sigma))
    )), sigma)
    k = rng.randint(1, 2)
    symbol = PolySymbol(k, sigma, dict(terms(
        lambda: ((_exps(rng, k), _exps(rng, k)), rng.choice([hpoly, _coeff(rng, sigma), 1, -1]))
    )))
    dim = 2 * k
    exppoly = ExpPoly(dim, sigma, dict(terms(
        lambda: ((tuple(_rational(rng) for _ in range(dim)), _exps(rng, dim)),
                 rng.choice([charsum, _coeff(rng, sigma), 1, -1]))
    )))
    distribution = Ultradistribution(dim, sigma, terms(
        lambda: (tuple(_rational(rng) for _ in range(dim)), _exps(rng, dim),
                 rng.choice([charsum, _coeff(rng, sigma), -1]))
    ))
    n = rng.randint(0, 4)
    grassmann = GrassmannElement(n, sigma, dict(terms(
        lambda: (rng.randrange(1 << n), rng.choice([_coeff(rng, sigma), 1, -1]))
    )))
    h = Fraction(rng.randint(1, 4), 3)
    return [
        hpoly, charsum, symbol, exppoly, distribution, grassmann, hpoly * hpoly,
        charsum * charsum, symbol * symbol, -exppoly, distribution.fourier(),
        grassmann * grassmann, WaveFunction(exppoly, h),
        Operator(symbol, h), Operator(exppoly, h),
    ]


def _element_renderings() -> list:
    lines = []
    for sigma in (Sigma.HYPERBOLIC, Sigma.COMPLEX):
        rng = random.Random(f"renderings:{sigma.value}")
        for _ in range(40):
            for x in _elements(rng, sigma):
                lines += [str(x), repr(x)]
                if not isinstance(x, (HPoly, CharSum)):
                    lines.append(json.dumps(x.to_json_dict(), sort_keys=True))
                for view in ("terms", "atoms", "items"):
                    if hasattr(x, view):
                        lines.append(repr(getattr(x, view)()))
    return lines


#: Line count and SHA-256 of the joined renderings, recorded before the
#: views, text and JSON of the sparse classes moved into ``SparseMap``.
RENDERINGS = (4240, "283aff2e0927cf896dcdf43ad1cf53e1755a715ec02fe2054bfbe701ddfb71d0")


def test_element_renderings_are_byte_identical():
    lines = _element_renderings()
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert (len(lines), digest) == RENDERINGS
