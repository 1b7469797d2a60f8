(** Failure scenarios: sets of downed links and nodes (paper §9; Tiramisu's
    "under all failure scenarios" verification style).

    A scenario never removes nodes from the graph — ids and names must stay
    aligned with the intact network so SRPs, abstractions and solutions map
    across directly. Downed nodes simply lose all their edges. *)

type t = {
  down_links : (int * int) list;  (** normalized [u < v], sorted, unique *)
  down_nodes : int list;  (** sorted, unique *)
}

type element = Link of int * int | Node of int

val make : ?nodes:int list -> (int * int) list -> t
val size : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool

val elements : t -> element list
val of_elements : element list -> t

val mem_node : t -> int -> bool
(** The node itself is down (downed-link endpoints are not "down"). *)

val apply : Graph.t -> t -> Graph.t
(** The surviving topology: same nodes and names, minus the downed links
    (both directions) and every edge touching a downed node. *)

val all_links : Graph.t -> (int * int) list
(** The undirected links [u < v] (a one-way edge counts too), sorted. *)

val cut_links : Graph.t -> (int * int) list
(** Links whose single failure disconnects the (weakly connected) graph —
    the highest-value single-failure scenarios. Empty if the graph is
    already disconnected. *)

val enumerate : k:int -> Graph.t -> t list
(** Every non-empty link-failure scenario with at most [k] downed links:
    [sum_{i=1..k} C(m, i)] scenarios for [m] links, in deterministic
    (size-major, lexicographic) order. Node failures are not enumerated —
    build them with {!make} if needed. *)

val count : k:int -> Graph.t -> int
(** [List.length (enumerate ~k g)], without materializing the list. *)

val sample : k:int -> samples:int -> seed:int -> Graph.t -> t list
(** Importance sampling for networks where {!enumerate} is too large: every
    cut link first (as single-failure scenarios), then distinct uniformly
    random link sets of size [<= k], until [samples] scenarios (or the
    space is exhausted). Deterministic in [seed]. *)

val shrink : (t -> bool) -> t -> t
(** [shrink fails sc] greedily delta-debugs a failing scenario ([fails sc]
    must hold) to a 1-minimal one: the result still fails, and dropping
    any single element of it makes the failure disappear. Calls [fails]
    O(size²) times. *)

val to_json : names:(int -> string) -> t -> Json.t
(** A list of strings: ["u-v"] per downed link, ["node:u"] per downed
    node. *)

val pp : names:(int -> string) -> Format.formatter -> t -> unit
(** E.g. [{agg0_0-core1, node edge2_1}]. *)
