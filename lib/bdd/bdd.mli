(** Reduced ordered binary decision diagrams (ROBDDs), hash-consed.

    Bonsai encodes each interface's routing policy as a BDD so that semantic
    equality of two policies is a pointer comparison (paper §5.1). This
    module provides the substrate: a manager owning a unique table and
    operation caches, and the usual Boolean operations.

    Variables are non-negative integers; the variable order is the integer
    order (smaller variables closer to the root). Two BDDs built in the same
    manager denote the same Boolean function iff they are physically equal
    ({!equal}). *)

type man
(** A BDD manager: unique table plus memoization caches. *)

type t
(** A BDD node, owned by some manager. Mixing nodes across managers is a
    programming error and is not detected. *)

val man : ?cache_size:int -> ?node_cap:int -> unit -> man
(** Fresh manager. [cache_size] seeds the internal hash tables;
    [node_cap] bounds the unique table (see {!set_node_cap}). *)

(** {1 Resource governance}

    BDD operations can blow up exponentially on adversarial policies. A
    manager optionally carries a {!Budget.t} — every uncached recursion
    step of [apply]/[ite]/[not_]/[restrict]/[exists]/renaming consumes one
    work tick — and a unique-table node cap. Both signal exhaustion by
    raising [Budget.Exhausted]; callers at API boundaries convert this to
    the typed [Bonsai_error.Budget_exceeded]. *)

val set_budget : man -> Budget.t -> unit
(** Install a budget on the manager ([Budget.infinite] to remove it). *)

val set_node_cap : man -> int option -> unit
(** Cap the number of interior nodes in the unique table ([None] removes
    the cap). Creating a node beyond the cap raises [Budget.Exhausted]
    with a note naming the cap. *)

val clear_caches : man -> unit
(** Drop operation caches (the unique table is retained, so equality of
    previously built nodes is preserved). *)

val num_nodes : man -> int
(** Number of live interior nodes in the unique table. *)

(** {1 Statistics}

    Counters over a manager's lifetime, exposed so callers that keep a
    manager alive across many compressions (the policy-signature cache of
    lib/incr) can report how much hash-consing actually saves. *)

type stats = {
  nodes : int;  (** unique-table occupancy ({!num_nodes}) *)
  apply_hits : int;
      (** binary-operation ([and]/[or]/[xor]) memo hits *)
  apply_misses : int;  (** uncached binary-operation recursion steps *)
  ite_hits : int;
  ite_misses : int;
}

val stats : man -> stats
(** Cumulative since the manager was created ({!clear_caches} empties the
    memo tables but does not reset the counters). *)

val pp_stats : Format.formatter -> stats -> unit

val stats_to_json : stats -> Json.t
(** The five counters, in record order. *)

(** {1 Constants and variables} *)

val bot : t
(** The constant false. *)

val top : t
(** The constant true. *)

val var : man -> int -> t
(** [var m i] is the function "variable [i] is true".
    @raise Invalid_argument on negative [i]. *)

val nvar : man -> int -> t
(** [nvar m i] is the negation of [var m i]. *)

(** {1 Operations} *)

val mk : man -> int -> lo:t -> hi:t -> t
(** [mk m v ~lo ~hi] is the node testing variable [v], with [lo] the
    co-factor for [v = false]. Callers must respect the variable order:
    [v] must be strictly smaller than the root variables of [lo] and [hi]. *)

val not_ : man -> t -> t
val ( &&& ) : man -> t -> t -> t
val ( ||| ) : man -> t -> t -> t

val and_ : man -> t -> t -> t
val or_ : man -> t -> t -> t
val xor : man -> t -> t -> t
val imp : man -> t -> t -> t
val iff : man -> t -> t -> t

val implies : man -> t -> t -> bool
(** [implies m a b] decides whether [a] covers into [b] — every assignment
    satisfying [a] satisfies [b] (i.e. [imp m a b] is the constant true).
    The semantic containment test behind the linter's clause-shadowing and
    dead-ACL-rule checks. *)


val ite : man -> t -> t -> t -> t
val and_list : man -> t list -> t
val or_list : man -> t list -> t

val restrict : man -> t -> var:int -> bool -> t
(** Co-factor: fix a variable to a constant. *)

val exists : man -> int list -> t -> t
(** Existential quantification over the listed variables. *)

val forall : man -> int list -> t -> t

val rename_shift : man -> t -> int -> t
(** [rename_shift m b k] adds [k] to every variable index ([k] may be
    negative as long as no index goes negative). The relative order of
    variables is preserved, so the result is a well-formed BDD. *)

val rename_monotone : man -> t -> (int -> int) -> t
(** [rename_monotone m b f] renames every variable [v] in the support to
    [f v]. [f] must be strictly increasing on the support of [b] (checked)
    and non-negative, so the result remains ordered. *)

(** {1 Inspection} *)

val equal : t -> t -> bool
(** Semantic equality; O(1) thanks to hash-consing. *)

val compare_id : t -> t -> int
(** A total order on nodes of one manager (by unique id); semantically
    meaningless, useful for keys in maps. *)

val hash : t -> int
val is_bot : t -> bool
val is_top : t -> bool

val eval : t -> (int -> bool) -> bool
(** [eval b env] evaluates the function under the assignment [env]. *)

val support : t -> int list
(** Variables the function actually depends on, increasing order. *)

val size : t -> int
(** Number of interior nodes reachable from this root. *)

val sat_count : t -> nvars:int -> float
(** Number of satisfying assignments over the variable universe
    [0 .. nvars-1]. *)

val any_sat : t -> (int * bool) list
(** A satisfying partial assignment (variables not listed are don't-care).
    @raise Not_found if the function is unsatisfiable. *)

val pp : Format.formatter -> t -> unit
(** Render as a sum of cubes (exponential in the worst case; intended for
    small policy BDDs in tests and examples). *)
