(* Dense ids for int-array keys. The caller supplies each key's hash —
   typically folded in while the key was being written, so no second
   pass over the key — and the hash only picks a bucket: two keys share
   an id only when they are equal element by element, so a hash
   collision can cost a comparison but never merge two keys. *)

type t = {
  buckets : (int, (int array * int) list) Hashtbl.t;
  mutable next : int;
}

let create n = { buckets = Hashtbl.create n; next = 0 }
let length t = t.next

let bucket t hash = Option.value ~default:[] (Hashtbl.find_opt t.buckets hash)

let find t ~hash key =
  List.find_map
    (fun (k, id) -> if k = key then Some id else None)
    (bucket t hash)

let id t ~hash key =
  match find t ~hash key with
  | Some id -> id
  | None ->
    let id = t.next in
    t.next <- id + 1;
    Hashtbl.replace t.buckets hash ((Array.copy key, id) :: bucket t hash);
    id
