# Every target is a scripts/check.sh subcommand — the same commands CI
# runs (.github/workflows/ci.yml), so a green `make all` locally means a
# green gate. The target list is read from check.sh, not repeated here.
CHECKS := $(shell sed -n 's/^SUBCOMMANDS="\(.*\)"$$/\1/p' scripts/check.sh)

.DEFAULT_GOAL := all
.PHONY: $(CHECKS)
$(CHECKS):
	scripts/check.sh $@
