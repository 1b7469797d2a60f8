let palette =
  [| "#e6194b"; "#3cb44b"; "#ffe119"; "#4363d8"; "#f58231"; "#911eb4";
     "#46f0f0"; "#f032e6"; "#bcf60c"; "#fabebe"; "#008080"; "#e6beff" |]

let to_string ?(name = "g") ?node_group g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "graph \"%s\" {\n" name);
  Buffer.add_string buf "  node [shape=ellipse, style=filled, fillcolor=white];\n";
  for v = 0 to Graph.n_nodes g - 1 do
    let color =
      match node_group with
      | Some f -> Printf.sprintf ", fillcolor=\"%s\"" palette.(f v mod Array.length palette)
      | None -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "  %d [label=\"%s\"%s];\n" v (Graph.name g v) color)
  done;
  List.iter
    (fun (u, v) ->
      if Graph.has_edge g v u then begin
        if u < v then Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v)
      end
      else Buffer.add_string buf (Printf.sprintf "  %d -- %d [dir=forward];\n" u v))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file ~path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))
