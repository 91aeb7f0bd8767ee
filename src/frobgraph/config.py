"""Desk-scale limits.

The order and degree caps are defaults: `group_from_generators` and
`construct` accept overrides, and the CLI's --cap overrides the order cap.
The conductor cap of cyclotomic arithmetic is fixed.
"""

DEFAULT_ORDER_CAP = 10_080
DEFAULT_DEGREE_CAP = 128
DEFAULT_CONDUCTOR_CAP = 5_040
