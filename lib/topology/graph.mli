(** Directed graphs over dense integer node ids.

    The SRP model (paper §3) works over a graph [G = (V, E, d)] with
    directed edges; links of real networks are represented as a pair of
    directed edges. Nodes carry a name used for reporting and DOT output. *)

type t

(** {1 Construction} *)

module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  val add_node : t -> string -> int
  (** Returns the fresh node's id (dense, starting at 0). *)

  val add_edge : t -> int -> int -> unit
  (** Directed edge. Duplicate edges are ignored; self-loops are rejected
      ({e well-formed} SRPs are self-loop-free, paper §3.1).
      @raise Invalid_argument on a self-loop or unknown endpoint. *)

  val add_link : t -> int -> int -> unit
  (** Undirected link: both directed edges. *)

  val build : t -> graph
end

val of_succ : string array -> int array array -> t
(** [of_succ names succ] is the graph on nodes [0 .. n-1], where [n] is
    the length of [names], with node [u]'s out-neighbours [succ.(u)]. The
    arrays are kept, not copied: do not mutate them afterwards.
    @raise Invalid_argument if the lengths differ, or a [succ] array is
    not strictly ascending, holds an unknown node or a self-loop. *)

val of_links : n:int -> (int * int) list -> t
(** [of_links ~n links] builds a graph with nodes [0 .. n-1] named
    ["n<i>"] and an undirected link per pair. *)

(** {1 Access} *)

val n_nodes : t -> int
val n_edges : t -> int
(** Number of directed edges. *)

val n_links : t -> int
(** Number of undirected links (pairs [{u,v}] with both directions
    present); one-way edges count as a link too. *)

val name : t -> int -> string
val find_by_name : t -> string -> int option
(** The node of that name (the last one, if names repeat). The name index
    is built on the first call. *)

val succ : t -> int -> int array
(** Out-neighbors, ascending. Do not mutate. *)

val pred : t -> int -> int array
(** In-neighbors, ascending. Do not mutate. *)

val has_edge : t -> int -> int -> bool
(** Binary search in [succ]. *)

val edge_base : t -> int -> int
(** Dense directed-edge ids (a CSR index over the sorted [succ] arrays):
    the [i]-th out-neighbor of [u] is reached by edge [edge_base g u + i].
    Ids run over [0 .. n_edges g - 1] in {!edges} order, so per-edge data
    can live in a flat array. *)

val edge_index : t -> int -> int -> int
(** [edge_index g u v] is the id of the edge [(u, v)], or [-1] if there
    is none. *)

val edges : t -> (int * int) list
(** All directed edges, lexicographic order (= edge-id order). *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Visits every directed edge in {!edges} order, without building the
    list. *)

val fold_nodes : t -> init:'a -> f:('a -> int -> 'a) -> 'a

val degree : t -> int -> int
(** Out-degree. *)

val is_connected : t -> bool
(** Weak connectivity (treating edges as undirected). Vacuously true for
    the empty graph. *)

val pp_stats : Format.formatter -> t -> unit
