(** Graphviz DOT output for concrete and abstract networks. *)

val to_string :
  ?name:string ->
  ?node_group:(int -> int) ->
  Graph.t ->
  string
(** [to_string g] renders [g] as an undirected DOT graph (paired directed
    edges collapse to one line; genuinely one-way edges are rendered as
    directed). [node_group] colors nodes by group id (e.g. by abstract
    node). *)

val write_file : path:string -> Graph.t -> unit
(** [to_string g] into the file at [path]. *)
