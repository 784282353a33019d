# Shell helpers for the steps of workflows/tests.yml; each step sources this
# file from the root of the checkout.  Files go to $T, the runner's temp dir.
T=$RUNNER_TEMP

# expect CODES NAME CMD...: run CMD with its stdout in $T/NAME.out and its
# stderr in $T/NAME.err, and print the stderr, and the stdout when it is
# short.  Fail unless CMD exits with one of the comma-separated CODES and
# its stderr holds no Python traceback.
expect() {
  local want=$1 name=$2 code=0
  shift 2
  "$@" > "$T/$name.out" 2> "$T/$name.err" || code=$?
  cat "$T/$name.err"
  test "$(wc -c < "$T/$name.out")" -gt 4096 || cat "$T/$name.out"
  case ",$want," in
    *",$code,"*) ;;
    *) echo "$name: expected exit $want, got $code"; exit 1 ;;
  esac
  ! grep -q Traceback "$T/$name.err" || { echo "$name: traceback on stderr"; exit 1; }
}

# certify CODE NAME SECONDS: recognize $T/NAME.txt into $T/NAME.json, which
# must exit with CODE, then verify that certificate: "certificate OK".  Each
# of the two commands has SECONDS.
certify() {
  expect "$1" "$2" timeout "$3" circarc recognize "$T/$2.txt" --out "$T/$2.json"
  expect 0 "$2-verify" timeout "$3" circarc verify "$T/$2.txt" "$T/$2.json"
  grep -qx "certificate OK" "$T/$2-verify.out"
}

# tamper IN OUT CODE [ARG...]: load the JSON document IN as doc, run the
# Python CODE on it (json and sys imported, each ARG in sys.argv[4:]), and
# write doc to OUT.
tamper() {
  python -c '
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
exec(sys.argv[3])
with open(sys.argv[2], "w") as f:
    json.dump(doc, f)
' "$@"
}

# anchor_name CERT COMPLETION: the name of a negative certificate's anchor,
# an index into the completion whose vertices `circarc complete` listed.
anchor_name() {
  python -c '
import json, sys
with open(sys.argv[1]) as f, open(sys.argv[2]) as g:
    print(json.load(g)["vertices"][json.load(f)["negative"]["anchor"]])
' "$1" "$2"
}
