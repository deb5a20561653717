"""The labels and names that the command line offers as choices.

Each is written once, here.  This module imports nothing, so the CLI
builds its parser without loading a computing module; `classifier`
reads the surface-type labels and the `classify low` type tags, and
`reproduce` its target names.
"""

# the label of each derived surface type, per degree in least-representative order
TYPE_LABELS = {2: ("smooth",), 3: ("2x2", "3x3"), 4: ("F4", "F3", "F5", "F2", "F1")}

# the five divisor families of determinantal quartics
DIVISOR_LABELS = tuple(sorted(TYPE_LABELS[4]))

# the type tags of `classify low`, per surface degree: the derived types
# and, at degree 2, the reducible quadric, which is no type of its own
LOW_DEGREE_TYPES = {2: (*TYPE_LABELS[2], "reducible"), 3: TYPE_LABELS[3]}

# the `reproduce` targets, in report order
TARGET_NAMES = (
    "degree2-kinds", "degree3-kinds", "degree4-kinds", *DIVISOR_LABELS,
    "low-degree-corollaries", "liaison-table",
)
