"""kcert: even covers in k-uniform hypergraphs and sound spectral refutation
certificates for semirandom k-XOR, via reweighted Kikuchi matrices."""

from .core import (Assignment, CapacityError, EvenCover, Hypergraph, KcertError,
                   XorInstance, brute_force_max_xor, eval_xor, gen_random,
                   min_even_cover_oracle, verify_even_cover)
from .decomposition import (Decomposition, Group, decompose_for_cover, decompose_for_refutation,
                            validate_decomposition)
from .io import (ParseError, load_hypergraph, load_xor, parse_hypergraph, parse_xor,
                 serialize_hypergraph, serialize_xor)
from .kikuchi_even import (Caps, EvenKikuchiGraph, build_even_kikuchi,
                           shortest_even_cover_via_kikuchi, signed_even_kikuchi)
from .kikuchi_odd import (ColoredKikuchiGraph, DeletionResult, build_colored_kikuchi,
                          delete_heavy_edges, equalize_deletion, measured_deletion_fractions,
                          predicted_deletion_fraction)
from .moore import graph_girth, moore_bound_audit
from .refuter import (CertificateError, certificate_from_json, certificate_to_json,
                      instance_digest, refute_even, refute_odd, verify_certificate)
from .spectral import (NonConvergenceError, exact_trace_power, ritz_norm_reweighted,
                       spectral_norm_reweighted, trace_bound_rhs)

__version__ = "0.1.0"
