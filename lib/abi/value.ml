(* Syscall argument values.

   [Ref i] denotes the return value of the [i]-th call of the same program
   (a file descriptor or other kernel resource id), mirroring Syzkaller's
   resource arguments. *)

type t =
  | Int of int
  | Str of string
  | Ref of int

let equal a b =
  match a, b with
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Ref x, Ref y -> Int.equal x y
  | Int _, (Str _ | Ref _) | Str _, (Int _ | Ref _) | Ref _, (Int _ | Str _)
    -> false

let pp ppf = function
  | Int n -> Fmt.int ppf n
  | Str s -> Fmt.pf ppf "%S" s
  | Ref i -> Fmt.pf ppf "r%d" i

(* [pp]'s bytes without a formatter: [%S] is a quoted [String.escaped]. *)
let to_string = function
  | Int n -> string_of_int n
  | Str s -> "\"" ^ String.escaped s ^ "\""
  | Ref i -> "r" ^ string_of_int i
