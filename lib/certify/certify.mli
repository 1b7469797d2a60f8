(** Certificates and their independent checker (defense in depth).

    The compression engine's answer — "this partition is an effective
    abstraction of the concrete network" — is only as trustworthy as the
    BDD manager, the refinement loop and the signature cache that produced
    it. Following LIGHTYEAR's posture (check small witnesses with a simple
    checker instead of trusting a monolithic engine) and Tiramisu's
    one-pass verification (stability of a labeling is checkable without
    re-running the fixpoint), every compression result can be exported as
    a {e certificate}: the role partition, per-class representative and
    preference levels, the abstract edge set with representative concrete
    edges, and the solved abstract labeling.

    {!check} re-validates the paper's Figure-4 conditions directly against
    the concrete configuration: partition well-formedness, dest
    equivalence, abstract self-loop freedom, ∀∃1/∀∃2, transfer equivalence
    (in a {e fresh} BDD universe, plus a BDD-free spot check that executes
    the route-maps themselves), rank agreement, ∀∀ neighborhoods for split
    groups, and stability of the claimed labeling via
    {!Solution.is_stable}.

    Trusted base: the config parser and the executable config semantics
    ([Compile.bgp_policy] = [Route_map.eval] composition, [Acl.permits],
    [Bonsai_api.effective_prefs], the quotient constructor and the
    stability predicate). Explicitly {e not} trusted: the engine's BDD
    manager and its hash-consing, the refinement loop, the incremental
    signature cache, and checkpoint bytes (see DESIGN.md §15). *)

type audit = Full | Sample

val audit_of_string : string -> audit option
val audit_to_string : audit -> string

type cert = {
  c_prefix : string;  (** destination prefix, [Prefix.to_string] form *)
  c_dest : string;  (** destination router name *)
  c_groups : string list list;
      (** per group, in abstract block order: member names, ascending by
          concrete node id *)
  c_reprs : string list;  (** per group: the representative (least member) *)
  c_prefs : int list list;
      (** per group: claimed effective local-preference levels (the
          paper's [prefs(û)]), ascending *)
  c_copies : int list;  (** per group: abstract copies (split groups) *)
  c_abs_edges : (int * int) list;  (** abstract edges over abstract ids *)
  c_edge_reprs : ((int * int) * (string * string)) list;
      (** per abstract edge: the representative concrete edge (least
          concrete edge mapping onto it) — the transfer-agreement
          obligation anchor *)
  c_labels : Json.t option;
      (** solved abstract labeling: a list, one entry per abstract node,
          [Null] for ⊥; [None] when the abstract SRP did not stabilize at
          emission (no labeling claim) *)
  c_degraded : bool;  (** identity fallback after budget exhaustion *)
}

type t = { network : string; certs : cert list }

type failure = { f_prefix : string; f_condition : string; f_detail : string }

type verdict =
  | Certified of { ecs : int; obligations : int }
      (** every condition of every class held; [obligations] counts the
          individual agreement checks performed *)
  | Refuted of failure list  (** at least one condition failed *)
  | Audit_incomplete of Budget.info
      (** the audit budget ran out before a verdict — never reported as
          certified *)

val of_ec_result : Device.network -> Bonsai_api.ec_result -> cert
(** Export the witness of one destination class; solves the (small)
    abstract SRP for the labeling claim. *)

val of_summary : network:string -> Device.network -> Bonsai_api.summary -> t

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val check :
  ?budget:Budget.t ->
  ?universe:Policy_bdd.universe ->
  audit:audit ->
  Device.network ->
  t ->
  verdict
(** Independent validation against the concrete configs. [Sample] checks
    every condition but spot-checks the per-member/per-edge agreement
    obligations on a deterministic subset; [Full] checks every member and
    every concrete edge. Budget exhaustion yields {!Audit_incomplete}.
    Each certificate costs O(E + obligations): the concrete edges are
    bucketed by group pair in one sorting pass, and the per-pair
    failures (∀∃1, phantom edges, ∀∃2, transfer agreement) come in
    ascending group-pair order.

    [universe] (default: a fresh [Policy_bdd.universe_of_network]) lets a
    caller auditing many classes amortize the universe build; it must be
    a manager {e independent} of the engine under audit, never the one
    that produced the certificate. *)

val check_result :
  ?budget:Budget.t ->
  ?universe:Policy_bdd.universe ->
  audit:audit ->
  Device.network ->
  Bonsai_api.ec_result ->
  verdict
(** [check (of_ec_result ...)] in one step, for one class: the step of
    {!check_summary}. *)

val check_summary :
  ?budget:Budget.t ->
  audit:audit ->
  Device.network ->
  Bonsai_api.summary ->
  verdict
(** {!check_result} over every class of the summary in one fresh
    universe, independent of the engine under audit: the first refutation or
    {!Audit_incomplete}, else [Certified] with the obligations summed.
    The audit of a resident engine's warm state. *)

val failures_string : failure list -> string
val pp_verdict : Format.formatter -> verdict -> unit
