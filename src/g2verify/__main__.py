from .report_cli import main

main(prog_name="verify")
