(** Linter and sanitizer diagnostics.

    A diagnostic names the rule it enforces (static [L1]-[L7], runtime
    [SAN-*]), a source position (or a synthetic file for runtime
    findings), a one-line message, and a one-line fix hint. Static
    diagnostics can be suppressed by a [[@lint.allow "Ln: reason"]]
    attribute in scope at the offending site; the suppression keeps the
    diagnostic but records the written justification. Runtime findings
    carry a [site] key instead of a meaningful position. *)

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;  (** "L1".."L7", "SAN-race", "SAN-order", "SAN-wal", … *)
  msg : string;
  hint : string;  (** one-line fix hint *)
  site : string;
      (** runtime dedup key (page/site pair, cycle path, check name);
          [""] for static diagnostics *)
  suppressed : string option;
      (** [Some justification] when an in-scope allow matched *)
  trace : string list;
      (** interprocedural frames (innermost first) explaining how the
          finding crossed function boundaries; printed by [--explain] *)
}

val make :
  ?suppressed:string option ->
  ?site:string ->
  ?trace:string list ->
  file:string ->
  line:int ->
  col:int ->
  rule:string ->
  hint:string ->
  string ->
  t

val of_location :
  ?suppressed:string option ->
  ?site:string ->
  ?trace:string list ->
  rule:string ->
  hint:string ->
  Location.t ->
  string ->
  t

val to_string : t -> string
(** [file:line:col(site): [rule] msg (hint: ...)] — one line, no trailing
    newline; the [(site)] part only when a site is set. *)

val compare : t -> t -> int
(** Order by rule, file, line, column, site — the dedup key that makes
    reports byte-stable across runs. *)

val dedupe : t list -> t list
(** Sort by {!compare} and drop exact-key duplicates. *)
