(** Vendor-independent BGP routing policy: route-maps.

    A route-map is an ordered list of clauses. A clause matches a route
    advertisement when {e all} its conditions hold (an empty condition list
    always matches); the first matching clause decides: [Permit] applies
    the clause's actions and accepts, [Deny] filters the route. A route
    matching no clause is denied (the usual implicit deny). This mirrors
    the policy fragment Bonsai consumes from Batfish's vendor-independent
    representation (paper §5.1, Figure 10). *)

type cond =
  | Match_community of int list
      (** any of the listed communities is attached (a community-list) *)
  | Match_prefix of Prefix.t list
      (** the {e destination} prefix of the route lies inside one of the
          listed prefixes (a prefix-list) *)

type action =
  | Set_local_pref of int
  | Add_community of int
  | Delete_community of int
  | Set_med of int

type verdict = Permit | Deny

type clause = { verdict : verdict; conds : cond list; actions : action list }
type t = clause list

val equal : t -> t -> bool
(** Clause-by-clause equality, physical equality first. *)

val permit_all : t
val deny_all : t

val eval : t -> dest:Prefix.t -> Bgp.attr -> Bgp.attr option
(** [eval rm ~dest a] runs the route-map on advertisement [a] for a route
    to [dest]. [None] means filtered. *)

(** {1 Per-destination compilation} *)

type compiled =
  | Identity  (** every route passes unchanged *)
  | Drop  (** every route is filtered *)
  | Clauses of t
      (** the {!relevant} clauses: no prefix condition is left, so
          {!apply} tests communities only *)
(** A route-map specialized to one destination, so that the transfer
    functions of a destination's SRP never re-resolve prefix conditions
    and skip maps that cannot act. *)

val compile : t -> dest:Prefix.t -> compiled
(** [compile rm ~dest] applies {!relevant} once. A map whose first
    remaining clause permits unconditionally with no action is
    [Identity]; one with no remaining clause, or whose first remaining
    clause denies unconditionally, is [Drop].
    [apply (compile rm ~dest) a] equals [eval rm ~dest a] for every [a]. *)

val apply : compiled -> Bgp.attr -> Bgp.attr option

val local_prefs : t -> dest:Prefix.t -> int list
(** Local-preference values that clauses reachable for this destination may
    assign (the ingredients of the paper's [prefs(v)], §4.3); sorted,
    deduplicated, {e excluding} the default. *)

val communities_matched : t -> int list
(** Communities tested by some [Match_community]; sorted, deduplicated. *)

val communities_set : t -> int list
(** Communities added or deleted by some action; sorted, deduplicated. *)

val relevant : t -> dest:Prefix.t -> t
(** Specializes the route-map to a destination: drops clauses whose prefix
    conditions can never hold for [dest] and resolves prefix conditions
    that always hold. The result contains no [Match_prefix]. *)

val pp : Format.formatter -> t -> unit
