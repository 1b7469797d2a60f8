(** Access control lists over destination prefixes.

    ACLs do not influence route selection but can block forwarding out an
    interface; Bonsai conservatively folds them into the transfer function
    so that nodes are only merged when their ACLs agree for the destination
    (paper §6). Rules are evaluated first-match; an ACL with no matching
    rule denies (implicit deny), and the absence of an ACL permits. *)

type rule = { permit : bool; prefix : Prefix.t }
type t = rule list

val equal : t -> t -> bool
(** Rule-by-rule equality, physical equality first. *)

val permits : t option -> Prefix.t -> bool
(** [permits acl dest] decides whether traffic to [dest] may pass. [None]
    (no ACL configured) permits. A destination {e overlapping} a rule's
    prefix without being contained decides by the rule as well — the rule
    applies to part of the range, and we conservatively let the first
    overlapping rule decide (destination ECs are chosen fine enough that
    this does not arise in practice). *)

val pp : Format.formatter -> t -> unit
