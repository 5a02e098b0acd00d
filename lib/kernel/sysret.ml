(* System call results: return value, errno, and a decoded out-payload
   (the data strace would render: file contents, stat buffers, received
   messages). The trace layer turns these into abstract syntax trees. *)

type stat = {
  inode : int;
  dev_minor : int;
  size : int;
  mtime : int;
}

type payload =
  | P_none
  | P_str of string
  | P_lines of string list
  | P_stat of stat

type t = {
  ret : int;
  err : Errno.t option;
  out : payload;
}

let ok ?(out = P_none) ret = { ret; err = None; out }
let error err = { ret = -Errno.to_int err; err = Some err; out = P_none }

let equal_payload a b =
  match (a, b) with
  | P_none, P_none -> true
  | P_str x, P_str y -> String.equal x y
  | P_lines x, P_lines y -> List.equal String.equal x y
  | P_stat x, P_stat y ->
    x.inode = y.inode && x.dev_minor = y.dev_minor && x.size = y.size
    && x.mtime = y.mtime
  | (P_none | P_str _ | P_lines _ | P_stat _), _ -> false

let equal a b =
  a == b
  || a.ret = b.ret
     && Option.equal ( = ) a.err b.err
     && equal_payload a.out b.out

let pp_payload ppf = function
  | P_none -> ()
  | P_str s -> Fmt.pf ppf " out=%S" s
  | P_lines ls ->
    Fmt.pf ppf " out=[%a]" (Fmt.list ~sep:(Fmt.any "; ") (fun p s -> Fmt.pf p "%S" s)) ls
  | P_stat st ->
    Fmt.pf ppf " stat{ino=%d dev=%d size=%d mtime=%d}" st.inode st.dev_minor
      st.size st.mtime

let pp ppf t =
  match t.err with
  | Some e -> Fmt.pf ppf "-1 %a" Errno.pp e
  | None -> Fmt.pf ppf "%d%a" t.ret pp_payload t.out
