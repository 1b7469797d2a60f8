type 'a node = {
  mutable value : 'a option;
  mutable zero : 'a node option;
  mutable one : 'a node option;
}

type 'a t = 'a node

let mk_node () = { value = None; zero = None; one = None }
let create = mk_node

let child node bit =
  match if bit then node.one else node.zero with
  | Some n -> n
  | None ->
    let n = mk_node () in
    if bit then node.one <- Some n else node.zero <- Some n;
    n

let locate t p =
  let rec go node i =
    if i >= (p : Prefix.t).len then node else go (child node (Prefix.bit p i)) (i + 1)
  in
  go t 0

let add t p v = (locate t p).value <- Some v

let update t p f =
  let node = locate t p in
  node.value <- Some (f node.value)

let find_exact t p =
  let rec go node i =
    if i >= (p : Prefix.t).len then node.value
    else
      match if Prefix.bit p i then node.one else node.zero with
      | None -> None
      | Some n -> go n (i + 1)
  in
  go t 0

let lpm t addr =
  let best = ref None in
  let rec go node i =
    (match node.value with
    | Some v -> best := Some (Prefix.make addr i, v)
    | None -> ());
    if i < 32 then
      match if Ipv4.bit addr i then node.one else node.zero with
      | None -> ()
      | Some n -> go n (i + 1)
  in
  go t 0;
  !best

let lpm_prefix t p =
  let best = ref None in
  let rec go node i =
    (match node.value with
    | Some v -> best := Some (Prefix.make (p : Prefix.t).addr i, v)
    | None -> ());
    if i < p.len then
      match if Prefix.bit p i then node.one else node.zero with
      | None -> ()
      | Some n -> go n (i + 1)
  in
  go t 0;
  !best

let fold t f init =
  (* Reconstructs each bound prefix from the path of bits leading to it. *)
  let rec go node bits depth acc =
    let acc =
      match node.value with
      | Some v ->
        let addr = ref 0 in
        List.iteri
          (fun i b -> if b then addr := !addr lor (1 lsl (31 - i)))
          (List.rev bits);
        f (Prefix.make (Ipv4.of_int32_bits !addr) depth) v acc
      | None -> acc
    in
    let acc =
      match node.zero with
      | Some n -> go n (false :: bits) (depth + 1) acc
      | None -> acc
    in
    match node.one with
    | Some n -> go n (true :: bits) (depth + 1) acc
    | None -> acc
  in
  go t [] 0 init

let cardinal t = fold t (fun _ _ n -> n + 1) 0
let bindings t = List.rev (fold t (fun p v acc -> (p, v) :: acc) [])
