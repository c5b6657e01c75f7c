"""The ids of the supported identities, in registry order.

They live apart from the verifiers so that the command line can offer them
as ``verify``'s choices without compiling ``identities``, whose registry
pairs each id, in this order, with its verifier.
"""

IDENTITY_IDS: tuple[str, ...] = (
    "thm2.1", "thm2.2", "thm2.3", "thm2.4", "thm2.5", "thm2.6",
    "thm3.1", "thm3.3", "cor3.2", "eq2", "eq3",
)
