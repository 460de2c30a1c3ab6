"""Eventually periodic points and the built-in actions.

Points of the binary Cantor set are stored exactly as preperiod +
repeating period.  The three built-in actions (binary odometer, first
Grigorchuk group, infinite dihedral group) act by finite-state
transducers, so every image is again eventually periodic.  Whether a
word acts as the identity is decided exactly, by a finite walk over the
product machine of its generators; the demo exits non-zero if a relation
it states does not hold.
"""

from fullgroup_lab import (
    apply_word,
    builtin_action,
    canonical_point,
    combine_actions,
    fragment_generators,
)


def identity(action, word):
    """Print and require that the word (generator names, rightmost
    first) acts as the identity."""
    ok = action.is_identity(word.split())
    print(f"  {word} acts as the identity (decided exactly): {ok}")
    if not ok:
        raise SystemExit(f"{word} is not the identity on {action.name}")


print("== canonical forms ==")
print("011111...      ->", canonical_point("01", "1").label())
print("000000...      ->", canonical_point("", "00").label())
print("0110 1010 ...  ->", canonical_point("0110", "10").label())

print()
print("== the odometer is binary +1, least significant digit first ==")
odo = builtin_action("odometer")
x = canonical_point("", "0")                     # the integer 0
for step in range(5):
    print(f"t^{step}(0) = {x.label()}")
    x = apply_word(odo, ["t"], x)
print("t(-1) =", apply_word(odo, ["t"], canonical_point("", "1")).label(),
      " (-1 + 1 = 0)")

print()
print("== Grigorchuk generators are involutions with b c d = 1 ==")
grig = builtin_action("grigorchuk")
for word in ("a a", "b b", "c c", "d d", "b c d"):
    identity(grig, word)

print()
print("== fragmenting a dihedral generator into two pieces ==")
dih = builtin_action("dihedral")
frag = fragment_generators(
    dih, "b", [[("0", True), ("1", False)], [("0", False), ("1", True)]])
A = fragment_generators(
    dih, "a", [[("00", True), ("10", True), ("01", False), ("11", False)],
               [("00", False), ("10", False), ("01", True), ("11", True)]],
    prefix="ha")
whole = combine_actions("dihedral_with_fragments", dih, frag, A)
print("  b is an involution, so h1 h2 = b exactly when h1 h2 b = 1:")
identity(whole, "h1 h2 b")
print("  (each h_i acts by b on its cylinder and trivially elsewhere)")

print()
print("== the fragmented dihedral action: fragment both generators ==")
AB = combine_actions("dihedral_frag", A, frag)
print("  generators:", AB.gen_names)
print("  ha1 ha2 recovers a:")
identity(whole, "ha1 ha2 a")
