(** Typed JSON codecs for case results, on the {!Kit_obs.Jsonl} value
    type — the payload format of case-result logs ({!Caselog}).

    A record is a JSON object whose field names are the tags: decoders
    find fields by name, ignore unknown ones, and give absent optional
    fields their defaults, so a record can grow an optional field with
    no checkpoint kind bump. Decoding is total: every decoder returns
    [Error] on malformed input and never raises.

    {!case_result_to_json} covers the whole {!Campaign.case_result}:
    the testcase, its funnel increments, the report (both programs,
    the diffs with both subtrees, and the origin with its reproducing
    seeds), the concurrent findings, the schedule-search accounting,
    the crash reports and the report's culprit pairs, as
    [[[sender_index, receiver_index], …]]. A log written before results
    carried culprits decodes them as [None]. A decoded result is structurally equal to
    the encoded one (property-tested; diff subtrees are
    {!Kit_trace.Ast.equal}). Reports carry no traces: the two trace
    fields of logs written while they did are ignored like any unknown
    field, so those logs still resume. *)

(** {2 Decoding combinators} *)

type 'a decoder = Kit_obs.Jsonl.t -> ('a, string) result

val ( let* ) :
  ('a, string) result -> ('a -> ('b, string) result) -> ('b, string) result

val int : int decoder
val string : string decoder
val bool : bool decoder
val list : 'a decoder -> 'a list decoder

val field : string -> 'a decoder -> 'a decoder
(** A required field of an object. *)

val field_or : string -> default:'a -> 'a decoder -> 'a decoder
(** An optional field: [default] when absent. *)

val parse : 'a decoder -> string -> ('a, string) result
(** {!Kit_obs.Jsonl.parse}, then the decoder. *)

(** {2 Case results} *)

val case_result_to_json : Campaign.case_result -> Kit_obs.Jsonl.t
val case_result_of_json : Campaign.case_result decoder
