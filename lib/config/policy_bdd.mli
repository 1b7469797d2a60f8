(** BDD encoding of routing policy (paper §5.1, Figure 10).

    Each interface's specialized policy — export route-map of the sender,
    import route-map of the receiver, and the outbound ACL, all specialized
    to one destination equivalence class — is encoded as a single BDD
    relating input advertisements to output advertisements. Because BDDs in
    one manager are hash-consed, two interfaces have semantically equal
    policies iff their BDDs are physically equal, turning the
    transfer-equivalence check of the refinement loop into a pointer
    comparison.

    A relation ranges over [w = C + L + M + 1] {e fields}: one per
    community in the universe, [L] bits for the local-preference value (an
    index into the value universe), [M] bits for the MED value, and one
    "dropped" flag. Each field owns three adjacent Boolean variables —
    input, output, and a scratch slot used during composition — keeping
    pass-through equality constraints local so relation BDDs stay linear
    in [w]. *)

type universe = {
  man : Bdd.man;
  comms : int array;  (** community values with a variable, ascending *)
  lps : int array;  (** local-preference value universe, ascending *)
  meds : int array;
  lp_bits : int;
  med_bits : int;
  width : int;  (** block width *)
}

val universe_of_network :
  ?keep_unmatched_comms:bool -> Device.network -> universe
(** Collects community and value universes from every route-map in the
    network. By default, communities that are {e set but never matched}
    anywhere are excluded — the paper's refined attribute abstraction
    [h(lp, tags, path) = (lp, tags - unused, f path)] (§8) that collapses
    spurious role differences. Pass [~keep_unmatched_comms:true] for the
    naive abstraction (used by the ablation benchmark). *)

type universe_params = {
  up_comms : int array;
  up_lps : int array;
  up_meds : int array;
}
(** A universe's value layout, detached from any BDD manager: the
    communities, local-preference and MED values that get variables.
    Two networks with equal params encode every policy over the same
    variables, which is what [Sig_cache.compatible] compares before it
    reuses cached BDDs for a changed network. *)

val universe_params :
  ?keep_unmatched_comms:bool -> Device.network -> universe_params
(** The scan half of {!universe_of_network} — no manager allocated. *)

val params_of_universe : universe -> universe_params

val identity : universe -> Bdd.t
(** Relation of the permit-all policy. *)

val drop_all : universe -> Bdd.t
(** Relation dropping every route (a denied interface). *)

val encode_route_map : universe -> Route_map.t -> dest:Prefix.t -> Bdd.t
(** Encode one route-map, specialized to the destination. *)

val compose : universe -> Bdd.t -> Bdd.t -> Bdd.t
(** [compose u r1 r2] is the relation applying [r1] then [r2]. *)

val edge_policy :
  universe -> Device.network -> dest:Prefix.t -> int -> int -> Bdd.t
(** [edge_policy u net ~dest recv sender] is the full policy relation for
    routes received at [recv] from [sender]: sender's export route-map,
    then receiver's import route-map; the whole edge drops everything if
    BGP is not configured on both ends or if the receiver's outbound ACL
    towards the sender denies the destination. *)

val edge_policies :
  universe -> Device.network -> dest:Prefix.t -> int -> int -> Bdd.t
(** [edge_policies u net ~dest] is [edge_policy u net ~dest] with one memo
    shared by all its calls: edges whose sender exports through the same
    route-map and whose receiver imports through the same route-map (and
    whose receiver's ACL permits [dest]) encode once. Each result is the
    node a fresh {!edge_policy} returns. *)

val apply : universe -> Bdd.t -> Bgp.attr -> Bgp.attr option
(** Run a policy relation on a concrete advertisement (communities outside
    the universe pass through untouched; the local-preference and MED must
    be in the universe). Used to cross-check the BDD encoding against
    {!Route_map.eval} in tests, and to execute abstract networks whose
    policies exist only as BDDs. *)

val same : Bdd.t -> Bdd.t -> bool
(** Pointer equality — the O(1) semantic-equality check. *)

val pp_policy : universe -> Format.formatter -> Bdd.t -> unit
(** Render a policy relation as a sum of cubes with named variables
    (communities in [asn:value] form, local-preference/MED index bits,
    the drop flag; primes mark outputs) — the textual analogue of the
    paper's Figure 10. Exponential in the worst case; meant for
    inspecting individual policies. *)

val var_name : universe -> int -> string
(** The display name of a BDD variable of this universe. *)
