(** SRP solutions: labelings [L : V -> A⊥] and the forwarding relation they
    induce (paper §3.1, Figure 4). *)

type 'a t = private {
  srp : 'a Srp.t;
  labels : 'a option array;
  fwd_table : (int * int) list array option;
      (** [fwd] of every node, when the producer computed it alongside the
          labeling (the solver's final sweep); [None]: derived on demand *)
}
(** The labels must not be mutated once a solution carries a forwarding
    table. *)

val of_labels : 'a Srp.t -> 'a option array -> 'a t
(** A labeling whose forwarding relation {!fwd} derives from the
    transfer functions on demand. Checkers build their solutions this
    way, so nothing they verify is taken from the solver. *)

val with_forwarding :
  'a Srp.t -> 'a option array -> (int * int) list array -> 'a t
(** A labeling with its forwarding table precomputed: entry [u] must be
    exactly what {!fwd} derives for [u] (see {!Solver.solve}). *)

val label : 'a t -> int -> 'a option

val equal_labels : 'a t -> 'a t -> bool
(** Pointwise equality of the two labelings under the SRP's [attr_equal]
    (never polymorphic [=]: attributes may have non-structural equality, or
    contain closures that [=] refuses to compare). *)

val choices : 'a t -> int -> ((int * int) * 'a) list
(** [choices s u] — the paper's [choices_L(u)]: pairs of an edge [(u, v)]
    and the attribute [trans((u,v), L(v))], for attributes that are not
    dropped. The destination's initial attribute is {e not} a choice. *)

val is_stable : 'a t -> bool
(** Every node is locally stable: the destination is labeled [a_d]; a node
    with no choices is labeled [⊥]; any other node's label is one of its
    choices and no choice is strictly preferred to it. *)

val stability_violations : 'a t -> (int * string) list
(** Human-readable reasons nodes are unstable (for tests and debugging). *)

val fwd : 'a t -> int -> (int * int) list
(** [fwd s u] — the paper's [fwd_L(u)]: edges whose attribute is as good
    ([≈]) as the chosen label, in [Graph.succ] order. Empty for
    unreachable nodes. Read from the forwarding table when the solution
    carries one, with no transfer evaluated. *)

val outcomes : 'a t -> int -> Forwarding.outcome
(** {!Forwarding.outcomes} over {!fwd}: does some forwarding path from
    the node deliver, drop or loop? Apply [outcomes s] once to query many
    nodes in O(nodes + edges) total. *)

val reaches : 'a t -> int -> bool
(** [reaches s u]: every forwarding path from [u] ends at the destination
    (and there is at least one) — {!Forwarding.reaches} of {!outcomes}. *)

val pp : Format.formatter -> 'a t -> unit
