(** Destination equivalence classes (paper §5.1).

    Announcements for different destinations do not interact, so the
    network is partitioned into classes of destinations that are "rooted"
    at the same node(s); Bonsai computes one abstraction per class rather
    than one per address. We build the classes with a prefix trie over
    every originated prefix: each distinct announced prefix (paired with
    the set of nodes announcing it) is one class — the address range it
    governs is the part of the prefix not covered by a longer announced
    prefix. *)

type ec = {
  ec_prefix : Prefix.t;
  ec_origins : int list;  (** nodes originating this prefix, sorted *)
}

val compute : Device.network -> ec list
(** One class per distinct announced prefix, sorted by prefix. *)

val count : Device.network -> int

val of_prefix : Device.network -> Prefix.t -> ec option
(** The class of exactly this announced prefix (the member of {!compute}
    with that prefix), found by scanning the originations without
    building the trie; [None] when no router originates it. *)

val find : Device.network -> string option -> ec
(** The class of the given prefix (e.g. ["10.0.0.0/24"]), or the first
    class when none is given.
    @raise Failure when the network originates no prefix or no class has
    that prefix; @raise Invalid_argument for an unparsable prefix. *)

val ec_for : Device.network -> Ipv4.t -> ec option
(** The class governing an address: the longest announced prefix
    containing it. *)

val ranges : Device.network -> ec -> Prefix.t list
(** The disjoint address ranges a class actually governs: its prefix minus
    every more-specific announced prefix, expressed as a minimal list of
    non-overlapping prefixes. The ranges of all classes partition the
    announced address space. *)

val single_origin : ec -> int
(** The unique origin. @raise Invalid_argument for an anycast class
    (multiple origins) — the compression pipeline currently requires a
    unique destination router per class (see DESIGN.md limitations). *)

val is_single_origin : ec -> bool
(** The class has exactly one origin: {!single_origin} will not raise.
    The pipelines compress these and skip the anycast rest. *)

val pp : Format.formatter -> ec -> unit
