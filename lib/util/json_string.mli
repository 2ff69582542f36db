(** JSON string literals: the one escaper behind every JSON file and
    JSONL line the tools write. *)

val escape : string -> string
(** The body of a JSON string literal for [s], without the surrounding
    quotes: quotes and backslashes are escaped, newline, tab, carriage
    return, backspace and form feed use their short escapes, and the
    other control bytes become [\u00XX]. *)
