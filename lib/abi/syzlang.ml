(* A textual codec for test programs, in the spirit of Syzkaller's
   program format:

     r0 = socket(0x1)
     r1 = open("/proc/net/ptype")
     r2 = read(r1)

   [Program.to_string] prints it; programs survive a print/parse round
   trip (property-tested). *)

exception Parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

let is_space c = Char.equal c ' ' || Char.equal c '\t'

let split_top_commas s =
  (* Split on commas that are not inside a string literal. *)
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let in_str = ref false in
  let escaped = ref false in
  String.iter
    (fun c ->
      if !in_str then begin
        Buffer.add_char buf c;
        if !escaped then escaped := false
        else if Char.equal c '\\' then escaped := true
        else if Char.equal c '"' then in_str := false
      end
      else if Char.equal c '"' then begin
        Buffer.add_char buf c;
        in_str := true
      end
      else if Char.equal c ',' then begin
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf
      end
      else Buffer.add_char buf c)
    s;
  parts := Buffer.contents buf :: !parts;
  List.rev_map String.trim !parts

let parse_value s =
  let s = String.trim s in
  if String.length s = 0 then fail "empty argument"
  else if Char.equal s.[0] '"' then begin
    if String.length s < 2 || not (Char.equal s.[String.length s - 1] '"') then
      fail "unterminated string literal %s" s;
    Value.Str (Scanf.sscanf s "%S" (fun x -> x))
  end
  else if Char.equal s.[0] 'r' && String.length s > 1 then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some i -> Value.Ref i
    | None -> fail "bad resource reference %s" s
  else
    match int_of_string_opt s with
    | Some n -> Value.Int n
    | None -> fail "bad integer %s" s

let parse_line line =
  let line = String.trim line in
  (* Optional "rN = " prefix: only strip when the text before the first
     '=' is exactly an rN name — syscall names also start with 'r' and
     string arguments may contain '='. *)
  let is_result_name s =
    let s = String.trim s in
    String.length s >= 2
    && Char.equal s.[0] 'r'
    && String.for_all (fun c -> c >= '0' && c <= '9')
         (String.sub s 1 (String.length s - 1))
  in
  let body =
    match String.index_opt line '=' with
    | Some eq when is_result_name (String.sub line 0 eq) ->
      String.trim (String.sub line (eq + 1) (String.length line - eq - 1))
    | Some _ | None -> line
  in
  match String.index_opt body '(' with
  | None -> fail "missing '(' in %s" line
  | Some lp ->
    let name = String.trim (String.sub body 0 lp) in
    let rp =
      match String.rindex_opt body ')' with
      | Some i -> i
      | None -> fail "missing ')' in %s" line
    in
    let args_str = String.sub body (lp + 1) (rp - lp - 1) in
    let sysno =
      match Sysno.of_string name with
      | Some n -> n
      | None -> fail "unknown syscall %s" name
    in
    let args =
      if String.for_all is_space args_str && String.length (String.trim args_str) = 0
      then []
      else List.map parse_value (split_top_commas args_str)
    in
    { Program.sysno; args }

let parse text =
  let lines = String.split_on_char '\n' text in
  let calls =
    List.filter_map
      (fun l ->
        let l = String.trim l in
        if String.length l = 0 then None
        else if String.length l >= 1 && Char.equal l.[0] '#' then None
        else Some (parse_line l))
      lines
  in
  Program.make calls
