(** Validation of the effective-abstraction conditions (paper Figure 4).

    The refinement loop is designed to establish these conditions; this
    module re-checks them independently on the finished abstraction, both
    as a safety net in production use and as the oracle for the test
    suite. *)

type violation = {
  condition : string;  (** e.g. "dest-equivalence", "forall-exists" *)
  detail : string;
}

val check : Abstraction.t -> signature:(int -> int -> Compile.edge_signature)
  -> violation list
(** Empty when the abstraction satisfies:
    - {b dest-equivalence}: the destination is alone in its group;
    - {b forall-exists 1}: every concrete edge has an abstract image;
    - {b forall-exists 2}: for every abstract edge [(û, v̂)], every member
      of [û] has a concrete edge to some member of [v̂];
    - {b transfer-equivalence}: all concrete edges mapping to one abstract
      edge carry the same interface signature (policy BDDs compared by
      pointer);
    - {b forall-forall} for split groups: members of a group with several
      local-preference levels have identical concrete neighborhoods;
    - {b self-loop freedom} of the abstract graph. *)

val pp_violation : Format.formatter -> violation -> unit
