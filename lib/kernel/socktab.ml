(* The global socket table. Socket ids are allocated from a per-boot
   random base (salted by the entropy source), which is why receiver
   programs cannot name a sender's socket with a constant — the property
   that makes known bug G undetectable by functional interference testing
   (paper, section 6.2). *)

open Maps

let fn_sock_alloc = Kfun.register "sock_alloc"
let fn_sock_lookup = Kfun.register "sock_lookup"
let fn_sock_update = Kfun.register "sock_update"

type sock = {
  id : int;
  dom : int;
  netns : int;
  userns : int;
  owner : int;                      (* pid *)
  bound : int option;               (* port *)
  cookie : int option;
  assoc : int option;               (* SCTP association id *)
  alg : string option;              (* AF_ALG algorithm *)
}

type t = {
  socks : sock Int_map.t Var.t;
  next_id : int Var.t;
}

let init heap =
  {
    socks = Var.alloc heap ~name:"sock.table" ~width:64 Int_map.empty;
    next_id = Var.alloc heap ~name:"sock.next_id" 0;
  }

(* Called once per boot, after the entropy source is seeded. *)
let randomize_base t rng = Var.poke t.next_id (0x10000 + (Krng.next rng land 0xFFFF))

let create ctx t ~dom ~netns ~userns ~owner =
  Kfun.call ctx fn_sock_alloc (fun () ->
      let id = Var.read ctx t.next_id in
      Var.write ctx t.next_id (id + 1);
      let sock =
        { id; dom; netns; userns; owner; bound = None; cookie = None;
          assoc = None; alg = None }
      in
      Var.write ctx t.socks (Int_map.add id sock (Var.read ctx t.socks));
      sock)

let find ctx t id =
  Kfun.call ctx fn_sock_lookup (fun () ->
      Int_map.find_opt id (Var.read ctx t.socks))

let update ctx t sock =
  Kfun.call ctx fn_sock_update (fun () ->
      Var.write ctx t.socks (Int_map.add sock.id sock (Var.read ctx t.socks)))

let remove ctx t id = Var.write ctx t.socks (Int_map.remove id (Var.read ctx t.socks))

