(** CP-equivalence checking (paper §4.2–§4.4).

    Given a stable solution [L] of the concrete network and an abstraction,
    we {e construct} the corresponding abstract labeling [L̂] — choosing,
    for split groups, the solution-dependent refinement [f_r] that maps
    each concrete node to the copy carrying its behavior (Theorem 4.5) —
    and then verify that:

    - the construction succeeds (≤ [|prefs(û)|] behaviors per group,
      Theorem 4.4; consistent labels within non-split groups);
    - [L̂] is a {e stable} solution of the abstract SRP;
    - the two solutions are fwd-equivalent: every concrete forwarding edge
      maps to an abstract one under [f_r], and every abstract forwarding
      edge is realized by every concrete node mapped onto its source.

    Together with label-equivalence (which holds by construction of [L̂])
    this is exactly the paper's CP-equivalence, checked on one concrete
    solution. *)

type outcome = {
  ok : bool;
  errors : string list;
  fr : int array;  (** concrete node -> abstract node (the refinement) *)
  abs_labels_opaque : unit;  (** see [check_*] returns for typed labels *)
}

val check :
  'a Compile.model ->
  Abstraction.t ->
  'a Solution.t ->
  outcome * 'a Solution.t option
(** Check a solution of the concrete SRP under the model; returns the
    constructed abstract solution when the behavior assignment succeeded
    (even if later checks failed). Under [Multi] the concrete forwarding
    relation must be acyclic (static-route loops make the inductive
    construction impossible — fwd-equivalence for pure static routing is
    checked separately by the test suite). *)

val check_plain :
  abs_srp:'a Srp.t ->
  Abstraction.t ->
  'a Solution.t ->
  outcome * 'a Solution.t option
(** For protocols whose attributes mention no node names (RIP, OSPF,
    static): [h] is the identity. *)
